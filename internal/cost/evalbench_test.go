package cost

// Kernel benchmarks behind DefaultHeapThreshold: the linear
// scan wins small-n, the heap wins large sparse-n. Run with:
//
//	go test ./internal/cost -run '^$' -bench 'Evaluate(Linear|Heap)' -benchtime 3x

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/graph"
)

var benchSizes = []int{64, 128, 256, 512}

// benchGraph builds a GA-like sparse connected candidate (~3 links/PoP).
func benchGraph(e *Evaluator, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(7))
	return randomConnected(rng, n, 6.0/float64(n), e.Dist())
}

func benchEvaluate(b *testing.B, n int, heap Switch) {
	e := optionsContext(b, n, 1, Options{Heap: heap})
	g := benchGraph(e, n)
	if e.CostUncached(g) == 0 {
		b.Fatal("zero cost")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CostUncached(g)
	}
}

func BenchmarkEvaluateLinear(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(sizeName(n), func(b *testing.B) { benchEvaluate(b, n, ForceOff) })
	}
}

func BenchmarkEvaluateHeap(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(sizeName(n), func(b *testing.B) { benchEvaluate(b, n, ForceOn) })
	}
}

func sizeName(n int) string { return fmt.Sprintf("n%d", n) }
