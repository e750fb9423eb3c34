package cost

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// cacheShards is the number of independently locked shards of the
// memoization cache. A power of two so the shard index is a cheap mask of
// the key hash; 64 shards keep contention negligible even at high worker
// counts (workers collide only when two keys hash into the same shard at
// the same instant).
const cacheShards = 64

// cacheChunkWords bounds the words in one chunk of a shard's arena, and
// cacheChunkMax the records: a chunk holds as many records as fit in
// cacheChunkWords, at least one and at most cacheChunkMax.
const (
	cacheChunkWords = 128
	cacheChunkMax   = 16
)

// cacheShard holds its memoized topologies as records in a chunked arena.
// The record of entry i is w+2 words for the cache's key width w: the
// cost's bits, the index of the previous entry with the same hash (-1 at
// the chain's end), then the key (a packed upper triangle, see
// graph.AppendUpper). head maps a hash to the newest entry with that hash.
//
// A shard grows a chunk at a time and never copies what it holds, so a
// cache allocates about the memory it keeps and wastes less than one chunk
// per shard; a run's cache stays live until the run ends. A paper-scale
// run (n = 30) leaves ~40 entries in a shard, for which growth by doubling
// would allocate about three times as much; at n = 128 a chunk is one
// 1 KB record. A reset empties the map and rewinds used but keeps the
// chunks, so a warm shard stores new topologies without allocating.
type cacheShard struct {
	mu     sync.Mutex
	head   map[uint64]int32
	used   int32
	chunks [][]uint64
}

// chunkRecords is the number of r-word records in one arena chunk.
func chunkRecords(r int) int { return min(cacheChunkMax, max(1, cacheChunkWords/r)) }

// record returns the r-word record of entry i, r = key width + 2. The
// caller holds s.mu.
func (s *cacheShard) record(i int32, r int) []uint64 {
	per := int32(chunkRecords(r))
	off := int(i%per) * r
	return s.chunks[i/per][off : off+r]
}

// sharedCache memoizes topology costs by packed key, picking a chain by the
// key's hash and comparing every candidate word for word, so a hash match
// alone never returns a cost. It is safe for concurrent use: the key space
// is split across cacheShards mutex-protected shards, and an Evaluator and
// all its Clones share one sharedCache, so a topology evaluated by any
// worker is a cache hit for every other worker.
type sharedCache struct {
	shards [cacheShards]cacheShard
	limit  atomic.Int64 // per-shard reset threshold; <= 0 disables caching
	hits   atomic.Uint64
	misses atomic.Uint64
}

func newSharedCache(limit int) *sharedCache {
	c := &sharedCache{}
	c.setLimit(limit)
	return c
}

// setLimit stores the total entry budget, converted to a per-shard reset
// threshold. A limit of zero (or below) disables memoization.
func (c *sharedCache) setLimit(limit int) {
	per := int64(0)
	if limit > 0 {
		per = max(1, int64(limit)/cacheShards)
	}
	c.limit.Store(per)
}

func (c *sharedCache) enabled() bool { return c.limit.Load() > 0 }

func (c *sharedCache) stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

func (c *sharedCache) shard(h uint64) *cacheShard {
	return &c.shards[h&(cacheShards-1)]
}

// hashKey hashes a packed key FNV-1a style, a word at a time, then folds
// the high bits down so the shard mask sees all of them.
func hashKey(key []uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range key {
		h ^= w
		h *= prime
	}
	return h ^ h>>32
}

// find returns the record of the entry whose key equals key in the chain
// of hash h, or nil. The caller holds s.mu.
func (s *cacheShard) find(h uint64, key []uint64) []uint64 {
	i, ok := s.head[h]
	if !ok {
		return nil
	}
	for i >= 0 {
		rec := s.record(i, len(key)+2)
		if slices.Equal(rec[2:], key) {
			return rec
		}
		i = int32(int64(rec[1]))
	}
	return nil
}

// lookup returns the memoized cost of the packed key (hashed to h) and
// whether it was present, updating the hit/miss counters.
func (c *sharedCache) lookup(h uint64, key []uint64) (float64, bool) {
	s := c.shard(h)
	s.mu.Lock()
	if rec := s.find(h, key); rec != nil {
		cost := math.Float64frombits(rec[0])
		s.mu.Unlock()
		c.hits.Add(1)
		return cost, true
	}
	s.mu.Unlock()
	c.misses.Add(1)
	return 0, false
}

// store memoizes the cost of the packed key (hashed to h), copying the key
// into the shard's arena so later reuse of the caller's buffer cannot
// corrupt the cache. Two workers that computed the same graph concurrently
// both call store; the second finds the existing entry and drops its
// duplicate (costs are deterministic, so the values agree). A shard that
// reaches the limit is emptied before the new entry goes in.
func (c *sharedCache) store(h uint64, key []uint64, cost float64) {
	limit := c.limit.Load()
	if limit <= 0 {
		return
	}
	s := c.shard(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.find(h, key) != nil {
		return
	}
	if s.head == nil {
		s.head = make(map[uint64]int32)
	} else if int64(s.used) >= limit {
		clear(s.head)
		s.used = 0
	}
	i, r := s.used, len(key)+2
	if per := chunkRecords(r); int(i)/per == len(s.chunks) {
		s.chunks = append(s.chunks, make([]uint64, per*r))
	}
	s.used++
	next, ok := s.head[h]
	if !ok {
		next = -1
	}
	s.head[h] = i
	rec := s.record(i, r)
	rec[0], rec[1] = math.Float64bits(cost), uint64(int64(next))
	copy(rec[2:], key)
}
