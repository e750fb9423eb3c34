package cost

// Kernel benchmark over the sizes the system runs: the service and paper
// sizes (n = 20, 30) and the large-n range. Run with:
//
//	go test ./internal/cost -run '^$' -bench 'Evaluate$' -benchmem

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/graph"
)

var benchSizes = []int{20, 30, 64, 128, 512}

// benchGraph builds a GA-like sparse connected candidate (~3 links/PoP).
func benchGraph(e *Evaluator, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(7))
	return randomConnected(rng, n, 6.0/float64(n), e.Dist())
}

// BenchmarkEvaluate times one uncached all-sources evaluation.
func BenchmarkEvaluate(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			e := uncachedContext(b, n, 1)
			g := benchGraph(e, n)
			if e.CostUncached(g) == 0 {
				b.Fatal("zero cost")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.CostUncached(g)
			}
		})
	}
}
