package cost

import (
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

// cacheShard holds its memoized topologies in flat arenas: entry i's key
// (a packed upper triangle, see graph.AppendUpper) is keys[i*w:(i+1)*w]
// for the cache's key width w, and head maps a hash to the newest entry
// with that hash, older ones chained through entry.next. A reset empties
// the arenas and the map but keeps their memory, so a warm shard stores
// new topologies without allocating.
type cacheShard struct {
	mu      sync.Mutex
	head    map[uint64]int32
	entries []cacheEntry
	keys    []uint64
}

type cacheEntry struct {
	cost float64
	next int32 // previous entry with the same hash, -1 at the chain's end
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

// find returns the index of the entry whose key equals key in the chain of
// hash h, or -1. The caller holds s.mu.
func (s *cacheShard) find(h uint64, key []uint64) int32 {
	i, ok := s.head[h]
	if !ok {
		return -1
	}
	w := len(key)
	for ; i >= 0; i = s.entries[i].next {
		if slices.Equal(s.keys[int(i)*w:int(i+1)*w], key) {
			return i
		}
	}
	return -1
}

// lookup returns the memoized cost of the packed key (hashed to h) and
// whether it was present, updating the hit/miss counters.
func (c *sharedCache) lookup(h uint64, key []uint64) (float64, bool) {
	s := c.shard(h)
	s.mu.Lock()
	if i := s.find(h, key); i >= 0 {
		cost := s.entries[i].cost
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
	if s.find(h, key) >= 0 {
		return
	}
	if s.head == nil {
		s.head = make(map[uint64]int32)
	} else if int64(len(s.entries)) >= limit {
		clear(s.head)
		s.entries, s.keys = s.entries[:0], s.keys[:0]
	}
	next, ok := s.head[h]
	if !ok {
		next = -1
	}
	s.head[h] = int32(len(s.entries))
	s.entries = append(s.entries, cacheEntry{cost: cost, next: next})
	s.keys = append(s.keys, key...)
}
