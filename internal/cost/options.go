package cost

// Switch is the type of the deprecated Options.Heap field.
//
// Deprecated: the evaluator has a single Dijkstra kernel, so there is no
// kernel choice left to switch. The type and its states remain so that
// code written against earlier releases, perfbench among it, still
// compiles; every state behaves the same.
type Switch uint8

// Switch states. All three are accepted and ignored.
const (
	Auto Switch = iota
	ForceOn
	ForceOff
)

// Options is the argument type of the deprecated NewEvaluatorOptions.
//
// Deprecated: the evaluator has no tunable options left. Every Options
// value builds the same evaluator as NewEvaluator.
type Options struct {
	// Heap is ignored: the indexed-heap Dijkstra is the only kernel.
	//
	// Deprecated: kept for the compatibility reason given on Switch.
	Heap Switch
}
