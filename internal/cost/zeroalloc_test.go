package cost

// Allocation regression tests for the evaluation hot path, plus the
// scratch-poisoning test behind the order[:count] contract.
//
// The GA evaluates every candidate in every generation through
// Cost/CostUncached (the BenchmarkEvaluate hot path), which must stay
// zero-alloc in steady state: the CSR snapshot and Dijkstra scratch are
// pooled on the Evaluator and only grow to their high-water capacity. The
// breakdown-materializing Evaluate API intentionally allocates — it returns
// caller-owned routing tables and per-edge slices — so the pins here target
// the path the GA loop runs.

import (
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

// kernelCases names the subtests of the scratch tests after the two
// Dijkstra kernels the deprecated Options.Heap switch once chose between.
// The switch is now ignored, so both cases must build the same pooled
// evaluator through NewEvaluatorOptions and keep its guarantees.
var kernelCases = []struct {
	name string
	heap Switch
}{{"linear", ForceOff}, {"heap", ForceOn}}

// optionsContext is uncachedContext built through the deprecated
// NewEvaluatorOptions constructor.
func optionsContext(t testing.TB, n int, seed int64, opts Options) *Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewUniform().Sample(n, rng)
	pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(n, rng)
	p := Params{K0: 10, K1: 1, K2: 3e-4, K3: 12}
	e, err := NewEvaluatorOptions(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.SetCacheLimit(0)
	return e
}

// TestZeroAllocEvaluate pins steady-state full evaluations at zero
// allocations, whichever kernel Options.Heap asks for. The first call
// warms the pooled CSR and scratch buffers; every later evaluation of
// same-size graphs must reuse them outright.
func TestZeroAllocEvaluate(t *testing.T) {
	for _, tc := range kernelCases {
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

// TestZeroAllocMemo pins the memoized path at zero allocations once warm:
// packing the key, hashing it, missing, evaluating and storing into the
// shard arenas, then hitting.
func TestZeroAllocMemo(t *testing.T) {
	const n = 30
	e := uncachedContext(t, n, 3)
	rng := rand.New(rand.NewSource(4))
	graphs := make([]*graph.Graph, 64)
	for i := range graphs {
		graphs[i] = randomConnected(rng, n, 4.0/n, e.Dist())
	}
	// Fill every shard past its limit once, so each has grown its arenas
	// and map to their high-water size and later stores only reuse them.
	e.SetCacheLimit(cacheShards)
	for round := 0; round < 4; round++ {
		for _, g := range graphs {
			e.Cost(g)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		e.Cost(graphs[i%len(graphs)])
		i++
	}); allocs != 0 {
		t.Fatalf("steady-state memoized Cost allocates %v objects/op, want 0", allocs)
	}
}

// poisonScratch fills every pooled buffer with values that make any stale
// read detectable: NaN distances, heap keys and loads, out-of-range node
// indices in parent, order and the heap's nodes and pos (indexing with one
// panics). A correct evaluation fully re-initializes everything it reads,
// so results after poisoning must stay bit-identical to a fresh
// evaluator's.
func poisonScratch(e *Evaluator) {
	n := e.n
	bad := int32(n + 7)
	for i := 0; i < n; i++ {
		e.dj.dist[i] = math.NaN()
		e.dj.parent[i] = bad
		e.dj.order[i] = bad
		e.dj.acc[i] = math.NaN()
	}
	for i := range e.dj.load {
		e.dj.load[i] = math.NaN()
	}
	for i := range e.dj.pos {
		e.dj.pos[i] = bad
		e.dj.nodes[i] = bad
		e.dj.keys[i] = math.NaN()
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
// into a load and diverge. The heap case compares with a fresh evaluator's
// Evaluate, the linear case with the linear-scan reference.
func TestScratchPoisoning(t *testing.T) {
	for _, tc := range kernelCases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 24
			ev := optionsContext(t, n, 5, Options{Heap: tc.heap})
			ref := optionsContext(t, n, 5, Options{Heap: tc.heap})
			want := ref.Evaluate
			if tc.heap == ForceOff {
				want = func(g *graph.Graph) *Evaluation { return referenceEvaluate(ref, g) }
			}
			rng := rand.New(rand.NewSource(6))
			g := randomConnected(rng, n, 0.25, ev.Dist())

			poisonScratch(ev)
			sameEvaluation(t, "poisoned full sweep", ev.Evaluate(g), want(g))

			// Disconnected graph: the kernel finalizes only one component and
			// stops early, leaving order[count:] stale (and still poisoned).
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
			sameEvaluation(t, "sweep after disconnection", ev.Evaluate(g), want(g))
			if ev.Cost(g) != ref.Cost(g) {
				t.Fatal("Cost after disconnection differs from a fresh evaluator")
			}
		})
	}
}
