package cost

// Cross-implementation equivalence harness: the production indexed-heap
// Dijkstra must agree BIT FOR BIT with the linear-scan reference
// (reference_test.go) on every output — distances, parents, finalization
// order and reached count per source, and total cost, per-link capacities
// and routing tables per evaluation — across randomized graphs. No
// tolerances: the memo cache and the determinism guarantees both assume
// routing is a function of the graph alone, so any drift is a bug.

import (
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

// uncachedContext builds a random n-PoP context with the cache off, so every
// call exercises the kernel.
func uncachedContext(t testing.TB, n int, seed int64) *Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewUniform().Sample(n, rng)
	pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(n, rng)
	p := Params{K0: 10, K1: 1, K2: 3e-4, K3: 12}
	e, err := NewEvaluator(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1), p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetCacheLimit(0)
	return e
}

// sameEvaluation fails the test unless a and b agree bit for bit on every
// field, including routing tables.
func sameEvaluation(t *testing.T, label string, a, b *Evaluation) {
	t.Helper()
	if a.Total != b.Total || a.LinkTotal != b.LinkTotal || a.NodeCost != b.NodeCost ||
		a.ExistenceCost != b.ExistenceCost || a.LengthCost != b.LengthCost ||
		a.BandwidthCost != b.BandwidthCost {
		t.Fatalf("%s: totals differ: %+v vs %+v", label, a, b)
	}
	if a.Connected != b.Connected || a.CoreCount != b.CoreCount {
		t.Fatalf("%s: Connected/CoreCount differ", label)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("%s: edge counts differ: %d vs %d", label, len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] || a.Lengths[i] != b.Lengths[i] || a.Capacities[i] != b.Capacities[i] {
			t.Fatalf("%s: edge %d differs: %v/%v/%v vs %v/%v/%v", label, i,
				a.Edges[i], a.Lengths[i], a.Capacities[i], b.Edges[i], b.Lengths[i], b.Capacities[i])
		}
	}
	if (a.Routing == nil) != (b.Routing == nil) {
		t.Fatalf("%s: one routing is nil", label)
	}
	if a.Routing == nil {
		return
	}
	for s := range a.Routing.PathDist {
		for v := range a.Routing.PathDist[s] {
			if a.Routing.PathDist[s][v] != b.Routing.PathDist[s][v] {
				t.Fatalf("%s: PathDist[%d][%d] differs: %v vs %v", label, s, v,
					a.Routing.PathDist[s][v], b.Routing.PathDist[s][v])
			}
			if a.Routing.Parent[s][v] != b.Routing.Parent[s][v] {
				t.Fatalf("%s: Parent[%d][%d] differs: %d vs %d", label, s, v,
					a.Routing.Parent[s][v], b.Routing.Parent[s][v])
			}
		}
	}
}

// tiedContext is uncachedContext with every distance rounded to a small
// positive integer, so equal path lengths — and with them the kernel's
// tie rule — are common.
func tiedContext(t testing.TB, n int, seed int64) *Evaluator {
	t.Helper()
	base := uncachedContext(t, n, seed)
	dist := make([][]float64, n)
	for i, row := range base.Dist() {
		dist[i] = make([]float64, n)
		for j, d := range row {
			if i != j {
				dist[i][j] = 1 + math.Round(d*3)
			}
		}
	}
	e, err := NewEvaluator(dist, base.Traffic(), base.params)
	if err != nil {
		t.Fatal(err)
	}
	e.SetCacheLimit(0)
	return e
}

// TestHeapLinearEquivalence: the heap kernel must match the linear-scan
// reference bit for bit — per source, and through whole evaluations
// (costs, capacities, distances, parents, route cost) — on 120 randomized
// graphs spanning sparse trees to near-cliques, connected and
// disconnected. Every other context has integer distances, where ties
// between paths are frequent and the tie rule decides parents and order.
func TestHeapLinearEquivalence(t *testing.T) {
	cases := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(37)
		e := uncachedContext(t, n, seed)
		if seed%2 == 1 {
			e = tiedContext(t, n, seed)
		}
		for _, p := range []float64{3.0 / float64(n), 0.3, 0.8} {
			g := randomConnected(rng, n, p, e.Dist())
			if rng.Intn(3) == 0 && g.NumEdges() > 0 {
				// Also cover disconnected graphs: drop a random edge
				// without repair (often splits sparse graphs).
				es := g.Edges()
				e := es[rng.Intn(len(es))]
				g.RemoveEdge(e.I, e.J)
			}
			checkKernelAgainstReference(t, "heap vs linear", e, g)
			ref := referenceEvaluate(e, g)
			sameEvaluation(t, "heap vs linear", e.Evaluate(g), ref)
			if e.Cost(g) != ref.Total {
				t.Fatalf("seed %d n %d: Cost differs from the reference", seed, n)
			}
			if e.RouteCost(g) != referenceRouteCost(e, g) {
				t.Fatalf("seed %d n %d: RouteCost differs from the reference", seed, n)
			}
			cases++
		}
	}
	if cases < 100 {
		t.Fatalf("only %d randomized cases, want >= 100", cases)
	}
}

// TestCostMatchesReferenceAtSmallN: Cost routes every source but the last
// (which has no higher-indexed demand to push) and must still equal the
// reference's all-source total bit for bit, on connected graphs and on
// graphs split in two — including splits that isolate only the last node,
// which source 0 must detect on its own. n = 1 has no split to make.
func TestCostMatchesReferenceAtSmallN(t *testing.T) {
	for _, n := range []int{1, 2, 3, 30} {
		for seed := int64(0); seed < 6; seed++ {
			e := uncachedContext(t, n, seed)
			if seed%2 == 1 {
				e = tiedContext(t, n, seed)
			}
			rng := rand.New(rand.NewSource(seed))
			g := randomConnected(rng, n, 0.3, e.Dist())
			graphs := []*graph.Graph{g}
			if n > 1 {
				last, cut := g.Clone(), g.Clone()
				for j := 0; j < n-1; j++ {
					last.RemoveEdge(j, n-1)
				}
				k := 1 + rng.Intn(n-1) // cut nodes [0, k) off from [k, n)
				for i := 0; i < k; i++ {
					for j := k; j < n; j++ {
						cut.RemoveEdge(i, j)
					}
				}
				graphs = append(graphs, last, cut)
			}
			for gi, g := range graphs {
				ref := referenceEvaluate(e, g)
				if got := e.Cost(g); math.Float64bits(got) != math.Float64bits(ref.Total) {
					t.Fatalf("n=%d seed %d graph %d: Cost %v, reference %v", n, seed, gi, got, ref.Total)
				}
				if gi > 0 && ref.Connected {
					t.Fatalf("n=%d seed %d graph %d: split graph is connected", n, seed, gi)
				}
				// Memoized, the first call stores the cost (an empty key at
				// n = 1) unless an equal graph already did, and the second
				// must hit it.
				e.SetCacheLimit(DefaultCacheLimit)
				var hits uint64
				for range 2 {
					hits = e.Stats().CacheHits
					if got := e.Cost(g); math.Float64bits(got) != math.Float64bits(ref.Total) {
						t.Fatalf("n=%d seed %d graph %d: memoized Cost %v, reference %v", n, seed, gi, got, ref.Total)
					}
				}
				if e.Stats().CacheHits != hits+1 {
					t.Fatalf("n=%d seed %d graph %d: repeated Cost missed the cache", n, seed, gi)
				}
				e.SetCacheLimit(0)
			}
		}
	}
}
