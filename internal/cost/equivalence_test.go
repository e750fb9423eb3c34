package cost

// Cross-implementation equivalence harness: the linear-scan and the
// indexed-heap Dijkstra must agree BIT FOR BIT on every output — total
// cost, per-link capacities, distances, parents — across randomized graphs.
// No tolerances: the memo cache and the determinism guarantees both assume
// the kernels are interchangeable, so any drift is a bug.

import (
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/traffic"
)

// optionsContext builds a random n-PoP context with explicit evaluator
// options (cache off so every call exercises the kernels).
func optionsContext(t testing.TB, n int, seed int64, opts Options) *Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewUniform().Sample(n, rng)
	pops := traffic.NewExponential().Sample(n, rng)
	p := Params{K0: 10, K1: 1, K2: 3e-4, K3: 12}
	e, err := NewEvaluatorOptions(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1), p, opts)
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

// TestHeapLinearEquivalence: the two Dijkstra kernels must produce
// bit-identical evaluations — costs, capacities, distances, parents — on
// 120 randomized graphs spanning sparse trees to near-cliques, connected
// and disconnected.
func TestHeapLinearEquivalence(t *testing.T) {
	cases := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(37)
		lin := optionsContext(t, n, seed, Options{Heap: ForceOff})
		heap := optionsContext(t, n, seed, Options{Heap: ForceOn})
		for _, p := range []float64{3.0 / float64(n), 0.3, 0.8} {
			g := randomConnected(rng, n, p, lin.Dist())
			if rng.Intn(3) == 0 && g.NumEdges() > 0 {
				// Also cover disconnected graphs: drop a random edge
				// without repair (often splits sparse graphs).
				es := g.Edges()
				e := es[rng.Intn(len(es))]
				g.RemoveEdge(e.I, e.J)
			}
			sameEvaluation(t, "heap vs linear", lin.Evaluate(g), heap.Evaluate(g))
			if lin.Cost(g) != heap.Cost(g) {
				t.Fatalf("seed %d n %d: Cost differs between kernels", seed, n)
			}
			if lin.RouteCost(g) != heap.RouteCost(g) {
				t.Fatalf("seed %d n %d: RouteCost differs between kernels", seed, n)
			}
			cases++
		}
	}
	if cases < 100 {
		t.Fatalf("only %d randomized cases, want >= 100", cases)
	}
}
