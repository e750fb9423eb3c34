package cost

// Fuzz target for the evaluator's equivalence guarantee: it decodes
// arbitrary bytes into a context + graph and asserts the bit-identity
// contract between the heap Dijkstra kernel and the linear-scan reference
// (reference_test.go) that the rest of the system (memo cache, GA
// determinism, golden fixtures) depends on.
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
func fuzzContext(t testing.TB, seed int64, sizeByte byte) *Evaluator {
	n := 2 + int(sizeByte%32)
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewUniform().Sample(n, rng)
	pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(n, rng)
	e, err := NewEvaluator(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1),
		Params{K0: 10, K1: 1, K2: 3e-4, K3: 12})
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
// — the heap kernel must match the reference from every source, and the
// evaluation built on it must match the reference's bit for bit.
func FuzzDijkstraEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{8, 0xff, 0x3c, 0x81})
	f.Add(int64(42), []byte{20, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80})
	f.Add(int64(-7), []byte{31})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) == 0 {
			return
		}
		e := fuzzContext(t, seed, data[0])
		g := fuzzGraph(e.N(), data[1:])
		checkKernelAgainstReference(t, "fuzz", e, g)
		sameEvaluation(t, "fuzz", e.Evaluate(g), referenceEvaluate(e, g))
	})
}
