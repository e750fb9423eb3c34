package cost

// Allocation regression tests for the evaluation hot path, plus the
// scratch-poisoning test behind the order[:count] contract.
//
// The GA evaluates every candidate in every generation through
// Cost/CostUncached (the BenchmarkEvaluate* hot paths), which must stay
// zero-alloc in steady state: the CSR snapshot and Dijkstra scratch are
// pooled on the Evaluator and only grow to their high-water capacity. The
// breakdown-materializing Evaluate API intentionally allocates — it returns
// caller-owned routing tables and per-edge slices — so the pins here target
// the path the GA loop runs.

import (
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/graph"
)

// TestZeroAllocEvaluate pins steady-state full evaluations at zero
// allocations under both Dijkstra kernels. The first call warms the pooled
// CSR and scratch buffers; every later evaluation of same-size graphs must
// reuse them outright.
func TestZeroAllocEvaluate(t *testing.T) {
	for _, tc := range []struct {
		name string
		heap Switch
	}{{"linear", ForceOff}, {"heap", ForceOn}} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 48
			e := optionsContext(t, n, 1, Options{Heap: tc.heap})
			rng := rand.New(rand.NewSource(2))
			g := randomConnected(rng, n, 6.0/n, e.Dist())
			dense := randomConnected(rng, n, 0.6, e.Dist()) // larger CSR: warms cols/weights high-water
			e.CostUncached(dense)
			e.CostUncached(g)
			for _, graphs := range [][]*graph.Graph{{g}, {g, dense}} {
				i := 0
				if allocs := testing.AllocsPerRun(20, func() {
					e.CostUncached(graphs[i%len(graphs)])
					i++
				}); allocs != 0 {
					t.Fatalf("steady-state CostUncached allocates %v objects/op, want 0", allocs)
				}
			}
		})
	}
}

// poisonScratch fills every pooled buffer with values that make any stale
// read detectable: NaN distances and loads, out-of-range node indices in
// parent/order/hpos (indexing with one panics), done all true. A
// correct evaluation fully re-initializes everything it reads, so results
// after poisoning must stay bit-identical to a fresh evaluator's.
func poisonScratch(e *Evaluator) {
	n := e.n
	bad := int32(n + 7)
	for i := 0; i < n; i++ {
		e.dj.dist[i] = math.NaN()
		e.dj.parent[i] = bad
		e.dj.done[i] = true
		e.dj.order[i] = bad
		e.dj.acc[i] = math.NaN()
	}
	for i := range e.dj.load {
		e.dj.load[i] = math.NaN()
	}
	for i := range e.dj.hpos {
		e.dj.hpos[i] = bad
	}
	for i := range e.csr.rowStart {
		e.csr.rowStart[i] = -1
	}
	for i := range e.csr.cols {
		e.csr.cols[i] = bad
	}
	for i := range e.csr.weights {
		e.csr.weights[i] = math.NaN()
	}
}

// TestScratchPoisoning poisons the scratch buffers between evaluations —
// including right after a disconnected graph's Dijkstra early-returns and
// leaves stale tail entries past count in e.dj.order — and verifies every
// following evaluation still matches a fresh evaluator bit for bit. Any
// consumer reading order past the finalized count (the order[:count]
// contract on pushLoads) would index out of range and panic, or fold NaN
// into a load and diverge.
func TestScratchPoisoning(t *testing.T) {
	for _, tc := range []struct {
		name string
		heap Switch
	}{{"linear", ForceOff}, {"heap", ForceOn}} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 24
			ev := optionsContext(t, n, 5, Options{Heap: tc.heap})
			ref := optionsContext(t, n, 5, Options{Heap: tc.heap})
			rng := rand.New(rand.NewSource(6))
			g := randomConnected(rng, n, 0.25, ev.Dist())

			poisonScratch(ev)
			sameEvaluation(t, "poisoned full sweep", ev.Evaluate(g), ref.Evaluate(g))

			// Disconnected graph: the kernels finalize only one component and
			// early-return, leaving order[count:] stale (and still poisoned).
			iso := g.Clone()
			for j := 1; j < n; j++ {
				iso.RemoveEdge(0, j)
			}
			poisonScratch(ev)
			if c := ev.Cost(iso); !math.IsInf(c, 1) {
				t.Fatalf("disconnected cost = %v, want +Inf", c)
			}

			// The scratch now holds the disconnected sweep's stale tails; the
			// next full sweep must stay exact without reading them.
			sameEvaluation(t, "sweep after disconnection", ev.Evaluate(g), ref.Evaluate(g))
			if ev.Cost(g) != ref.Cost(g) {
				t.Fatal("Cost after disconnection differs from a fresh evaluator")
			}
		})
	}
}
