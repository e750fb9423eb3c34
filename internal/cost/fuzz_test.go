package cost

// Fuzz target for the evaluator's equivalence guarantee: it decodes
// arbitrary bytes into a context + graph and asserts the bit-identity
// contract between the linear-scan and heap Dijkstra kernels that the rest
// of the system (memo cache, GA determinism, golden fixtures) depends on.
//
// The seed corpus lives in testdata/fuzz/FuzzDijkstraEquivalence/. CI runs
// the target for a short -fuzztime as a smoke job (make fuzz); run locally
// with e.g.
//
//	go test ./internal/cost -run '^$' -fuzz FuzzDijkstraEquivalence -fuzztime 30s

import (
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

// fuzzContext derives a deterministic context from a seed, sized 2..33.
func fuzzContext(t testing.TB, seed int64, sizeByte byte, opts Options) *Evaluator {
	n := 2 + int(sizeByte%32)
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewUniform().Sample(n, rng)
	pops := traffic.NewExponential().Sample(n, rng)
	e, err := NewEvaluatorOptions(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1),
		Params{K0: 10, K1: 1, K2: 3e-4, K3: 12}, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.SetCacheLimit(0)
	return e
}

// fuzzGraph decodes data as a bitmask over the upper-triangle pairs of an
// n-node graph (bit k of byte k/8 = pair k in lexicographic order).
func fuzzGraph(n int, data []byte) *graph.Graph {
	g := graph.New(n)
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if k/8 < len(data) && data[k/8]&(1<<(k%8)) != 0 {
				g.AddEdge(i, j)
			}
			k++
		}
	}
	return g
}

// FuzzDijkstraEquivalence: for any context and any graph — connected or not
// — the two Dijkstra kernels must produce bit-identical evaluations.
func FuzzDijkstraEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{8, 0xff, 0x3c, 0x81})
	f.Add(int64(42), []byte{20, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80})
	f.Add(int64(-7), []byte{31})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) == 0 {
			return
		}
		lin := fuzzContext(t, seed, data[0], Options{Heap: ForceOff})
		heap := fuzzContext(t, seed, data[0], Options{Heap: ForceOn})
		g := fuzzGraph(lin.N(), data[1:])
		evL, evH := lin.Evaluate(g), heap.Evaluate(g)
		if evL.Total != evH.Total || evL.Connected != evH.Connected {
			t.Fatalf("kernels disagree: linear %v/%v heap %v/%v",
				evL.Total, evL.Connected, evH.Total, evH.Connected)
		}
		for i := range evL.Capacities {
			if evL.Capacities[i] != evH.Capacities[i] {
				t.Fatalf("capacity %d differs: %v vs %v", i, evL.Capacities[i], evH.Capacities[i])
			}
		}
		for s := range evL.Routing.PathDist {
			for v := range evL.Routing.PathDist[s] {
				if evL.Routing.PathDist[s][v] != evH.Routing.PathDist[s][v] ||
					evL.Routing.Parent[s][v] != evH.Routing.Parent[s][v] {
					t.Fatalf("routing (%d,%d) differs", s, v)
				}
			}
		}
	})
}
