package core

// Tests for breeding's storage reuse: breed writes each non-elite child
// into the graph next already holds at that slot — a member of the
// population from two generations back that nothing references any more —
// so a warm generation builds its offspring without allocating, and no
// member of the current population is ever written.

import (
	"testing"

	"github.com/networksynth/cold/internal/graph"
)

// recycleRunner returns a runner and its sorted, evaluated initial
// population at the given parallelism.
func recycleRunner(t testing.TB, par int) (*runner, []*graph.Graph, []float64) {
	t.Helper()
	s := DefaultSettings()
	s.PopulationSize = 30
	s.NumSaved = 4
	s.NumMutation = 9
	s.Parallelism = par
	ga := newRunner(parallelTestEvaluator(t, 14, 8), s, 99)
	pop := ga.initialPopulation()
	costs := ga.evaluate(pop)
	sortByCost(pop, costs)
	return ga, pop, costs
}

// TestBreedLeavesPopulationIntact runs generations the way RunContext does
// and checks, around every breed, that no member of pop changed, that the
// elite of next are pop's elite pointers, that every other slot of next is
// a graph pop does not hold, and that from the second generation on those
// slots reuse the graphs next held before the call.
func TestBreedLeavesPopulationIntact(t *testing.T) {
	for _, par := range []int{1, 4} {
		ga, pop, costs := recycleRunner(t, par)
		elite := ga.s.NumSaved
		next := make([]*graph.Graph, len(pop))
		for gen := 1; gen <= 6; gen++ {
			snap := make([]*graph.Graph, len(pop))
			for i, g := range pop {
				snap[i] = g.Clone()
			}
			before := append([]*graph.Graph(nil), next...)
			ga.breed(gen, pop, costs, next)
			inPop := make(map[*graph.Graph]bool, len(pop))
			for i, g := range pop {
				inPop[g] = true
				if !g.Equal(snap[i]) {
					t.Fatalf("parallelism %d gen %d: breed changed pop[%d]", par, gen, i)
				}
			}
			for slot, g := range next {
				switch {
				case slot < elite && g != pop[slot]:
					t.Fatalf("parallelism %d gen %d: next[%d] is not pop[%d]", par, gen, slot, slot)
				case slot >= elite && inPop[g]:
					t.Fatalf("parallelism %d gen %d: offspring at slot %d is a member of pop", par, gen, slot)
				case slot >= elite && gen > 1 && g != before[slot]:
					t.Fatalf("parallelism %d gen %d: slot %d did not reuse next's graph", par, gen, slot)
				}
			}
			pop, next = next, pop
			costs = ga.evaluate(pop)
			sortByCost(pop, costs)
		}
	}
}

// TestBreedAllocatesNothing: once a generation has warmed the recycled
// graphs and the breeding scratch, a serial breed allocates nothing.
func TestBreedAllocatesNothing(t *testing.T) {
	ga, pop, costs := recycleRunner(t, 1)
	next := make([]*graph.Graph, len(pop))
	for gen := 1; gen <= 2; gen++ {
		ga.breed(gen, pop, costs, next)
		pop, next = next, pop
		costs = ga.evaluate(pop)
		sortByCost(pop, costs)
	}
	if allocs := testing.AllocsPerRun(20, func() { ga.breed(3, pop, costs, next) }); allocs != 0 {
		t.Fatalf("steady-state breed allocates %v objects/op, want 0", allocs)
	}
}
