package cost

// Tests for the sharded memoization cache and Evaluator.Clone: concurrent
// workers must agree with a serial evaluator on every cost, and the shared
// cache must serve hits across clones.

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

func cacheTestEvaluator(t *testing.T, n int, seed int64) *Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewUniform().Sample(n, rng)
	pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(n, rng)
	e, err := NewEvaluator(geom.DistanceMatrix(pts), traffic.Gravity(pops, traffic.DefaultGravityScale), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func cacheRandGraph(n int, p float64, dist [][]float64, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	g.Connect(dist)
	return g
}

func TestCloneConcurrentAgreesWithSerial(t *testing.T) {
	const n, graphs, workers = 16, 120, 8
	e := cacheTestEvaluator(t, n, 1)
	rng := rand.New(rand.NewSource(2))
	pop := make([]*graph.Graph, graphs)
	want := make([]float64, graphs)
	serial := cacheTestEvaluator(t, n, 1)
	for i := range pop {
		pop[i] = cacheRandGraph(n, 0.2, e.Dist(), rng)
		want[i] = serial.Cost(pop[i])
	}

	got := make([]float64, graphs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ev := e
		if w > 0 {
			ev = e.Clone()
		}
		wg.Add(1)
		go func(ev *Evaluator, w int) {
			defer wg.Done()
			for i := w; i < graphs; i += workers {
				got[i] = ev.Cost(pop[i])
			}
		}(ev, w)
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("graph %d: concurrent cost %v, serial %v", i, got[i], want[i])
		}
	}
}

func TestCloneSharesCache(t *testing.T) {
	e := cacheTestEvaluator(t, 10, 3)
	g := cacheRandGraph(10, 0.3, e.Dist(), rand.New(rand.NewSource(4)))
	c := e.Cost(g)
	clone := e.Clone()
	if got := clone.Cost(g.Clone()); got != c {
		t.Fatalf("clone cost %v, original %v", got, c)
	}
	st := e.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("want 1 hit (clone) and 1 miss (original), got %d/%d", st.CacheHits, st.CacheMisses)
	}
	cs := clone.Stats()
	if cs.CacheHits != st.CacheHits || cs.CacheMisses != st.CacheMisses {
		t.Fatal("clone must report the shared cache's stats")
	}
}

func TestSetCacheLimitZeroDisables(t *testing.T) {
	e := cacheTestEvaluator(t, 10, 5)
	e.SetCacheLimit(0)
	g := cacheRandGraph(10, 0.3, e.Dist(), rand.New(rand.NewSource(6)))
	e.Cost(g)
	e.Cost(g)
	st := e.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 2 {
		t.Fatalf("disabled cache: want 0 hits / 2 misses, got %d/%d", st.CacheHits, st.CacheMisses)
	}
}

func TestCacheResetOnOverflow(t *testing.T) {
	e := cacheTestEvaluator(t, 10, 7)
	// A tiny limit still leaves one slot per shard; storing many distinct
	// graphs forces per-shard resets without losing correctness.
	e.SetCacheLimit(1)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		g := cacheRandGraph(10, 0.3, e.Dist(), rng)
		first := e.Cost(g)
		if again := e.Cost(g); again != first {
			t.Fatalf("graph %d: cost changed across calls: %v vs %v", i, first, again)
		}
	}
}

// TestCacheCollisionVerifiesKey stores two distinct topologies under one
// forced hash value: each lookup must return its own cost, because a hash
// match alone never returns a cost — the packed keys are compared word for
// word. A third topology with the same hash and no entry must miss.
func TestCacheCollisionVerifiesKey(t *testing.T) {
	const n = 30
	rng := rand.New(rand.NewSource(11))
	dist := cacheTestEvaluator(t, n, 11).Dist()
	a, b, c := cacheRandGraph(n, 0.2, dist, rng), cacheRandGraph(n, 0.2, dist, rng), cacheRandGraph(n, 0.2, dist, rng)
	ka, kb, kc := a.AppendUpper(nil), b.AppendUpper(nil), c.AppendUpper(nil)
	if slices.Equal(ka, kb) || slices.Equal(ka, kc) || slices.Equal(kb, kc) {
		t.Fatal("test graphs must be distinct")
	}
	const h = 0x5eed
	cache := newSharedCache(DefaultCacheLimit)
	cache.store(h, ka, 1)
	cache.store(h, kb, 2)
	for _, tc := range []struct {
		key  []uint64
		want float64
	}{{ka, 1}, {kb, 2}} {
		if got, ok := cache.lookup(h, tc.key); !ok || got != tc.want {
			t.Fatalf("lookup = %v, %v; want %v, true", got, ok, tc.want)
		}
	}
	if got, ok := cache.lookup(h, kc); ok {
		t.Fatalf("unstored topology under a colliding hash returned cost %v", got)
	}
	// The stored keys are copies: reusing the caller's buffer must not
	// change what the cache matches.
	kb[0] ^= 1
	if _, ok := cache.lookup(h, b.AppendUpper(nil)); !ok {
		t.Fatal("cache entry changed with the caller's key buffer")
	}
}

// TestCacheChunksAcrossResets fills one shard through several arena chunks
// and two resets, with narrow keys (many records to a chunk) and wide ones
// (one record to a chunk): every key stored since the last reset hits with
// its own cost — including chains of equal hashes that span chunks — and
// every key stored before it misses.
func TestCacheChunksAcrossResets(t *testing.T) {
	const perShard, total = 3*cacheChunkMax + 5, 2*(3*cacheChunkMax+5) + 30
	for _, w := range []int{3, 127} {
		cache := newSharedCache(perShard * cacheShards)
		key := func(k int) []uint64 {
			key := make([]uint64, w)
			for i := range key {
				key[i] = uint64(k*w + i)
			}
			return key
		}
		hash := func(k int) uint64 { return uint64(k%5) * cacheShards } // shard 0, five chains
		for k := 0; k < total; k++ {
			cache.store(hash(k), key(k), float64(k))
		}
		live := total - total%perShard // the first key stored after the last reset
		for k := 0; k < total; k++ {
			got, ok := cache.lookup(hash(k), key(k))
			if want := k >= live; ok != want || (ok && got != float64(k)) {
				t.Fatalf("w=%d key %d: lookup = %v, %v; want hit %v with cost %d", w, k, got, ok, want, k)
			}
		}
		per := chunkRecords(w + 2)
		if s := &cache.shards[0]; len(s.chunks) != (perShard+per-1)/per || len(s.chunks[0]) != per*(w+2) {
			t.Fatalf("w=%d: shard grew %d chunks of %d words, want %d of %d",
				w, len(s.chunks), len(s.chunks[0]), (perShard+per-1)/per, per*(w+2))
		}
	}
}
