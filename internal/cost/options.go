package cost

import "fmt"

// Switch is a three-state toggle for the evaluator's kernel choice: Auto
// lets the evaluator pick based on the context size, ForceOn and ForceOff
// override the choice (tests use the forced states to pin each kernel).
type Switch uint8

// Switch states.
const (
	Auto Switch = iota
	ForceOn
	ForceOff
)

// String renders the switch state.
func (s Switch) String() string {
	switch s {
	case Auto:
		return "auto"
	case ForceOn:
		return "on"
	case ForceOff:
		return "off"
	default:
		return fmt.Sprintf("Switch(%d)", uint8(s))
	}
}

// DefaultHeapThreshold is the context size at which Auto switches the
// per-source Dijkstra from the O(n²) linear scan to the indexed binary
// heap. Below it the linear scan's cache-friendly sweep is at least as
// fast; measured on amd64 the heap pulls ahead from n ≈ 24 on sparse GA
// candidates and n ≈ 32 even on near-cliques, reaching ~5× at n = 512
// (BenchmarkEvaluateLinear vs BenchmarkEvaluateHeap).
const DefaultHeapThreshold = 32

// Options tune how the Evaluator routes. The zero value is the production
// default: the kernel chosen on Auto. The
// selection changes only speed — both kernels return bit-identical costs,
// loads and routing (the equivalence test suite enforces this).
type Options struct {
	// Heap selects the per-source shortest-path kernel: Auto uses the
	// indexed-heap Dijkstra for contexts with at least DefaultHeapThreshold
	// PoPs and the linear scan below, ForceOn/ForceOff pin one kernel. Both
	// kernels run over the same pooled CSR snapshot of the candidate graph
	// (built once per evaluation, reused across all n sources), so the
	// choice affects only the frontier-selection strategy.
	Heap Switch
}

// Validate rejects unknown switch states.
func (o Options) Validate() error {
	if o.Heap > ForceOff {
		return fmt.Errorf("cost: options: unknown Heap switch %d", o.Heap)
	}
	return nil
}

// enabled resolves a switch against the Auto rule "on when n >=
// DefaultHeapThreshold".
func (s Switch) enabled(n int) bool {
	switch s {
	case ForceOn:
		return true
	case ForceOff:
		return false
	default:
		return n >= DefaultHeapThreshold
	}
}
