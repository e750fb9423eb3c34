package core

// Kernel benchmark on the graphs the GA really evaluates: a random
// benchmark graph is neither as sparse nor as tree-like as a converging
// population, so the routing kernel is timed here on every distinct
// candidate of real GA runs at the paper, service and large-n sizes. Run
// with:
//
//	go test ./internal/core -run '^$' -bench SweepGACorpus -benchmem

import (
	"fmt"
	"testing"

	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/graph"
)

// gaCorpus drives a GA run for e the way RunContext does and returns every
// distinct graph it evaluates, in first-evaluation order: the graphs
// whose cost the memo cache misses, so each is one full sweep in the run.
func gaCorpus(e *cost.Evaluator, s Settings, seed uint64) []*graph.Graph {
	var corpus []*graph.Graph
	seen := map[string]bool{}
	var key []uint64
	collect := func(pop []*graph.Graph) {
		for _, g := range pop {
			key = g.AppendUpper(key[:0])
			if k := fmt.Sprint(key); !seen[k] {
				seen[k] = true
				corpus = append(corpus, g.Clone())
			}
		}
	}
	ga := newRunner(e, s, seed)
	pop := ga.initialPopulation()
	collect(pop)
	costs := ga.evaluate(pop)
	sortByCost(pop, costs)
	next := make([]*graph.Graph, s.PopulationSize)
	for gen := 1; gen < s.Generations; gen++ {
		ga.breed(gen, pop, costs, next)
		pop, next = next, pop
		collect(pop)
		costs = ga.evaluate(pop)
		sortByCost(pop, costs)
	}
	return corpus
}

// BenchmarkSweepGACorpus times one uncached evaluation (CostUncached) per
// op, cycling through the distinct graphs of GA runs on three contexts per
// size at default Params: n=20 with M=T=30 (the service size), n=30 with
// M=T=100 (the paper's) and n=128 with M=50, T=30 (perfbench's large-n).
// The corpus is built once per size, outside the timer.
func BenchmarkSweepGACorpus(b *testing.B) {
	type sample struct {
		e *cost.Evaluator
		g *graph.Graph
	}
	for _, c := range []struct{ n, pop, gens int }{{20, 30, 30}, {30, 100, 100}, {128, 50, 30}} {
		var corpus []sample
		b.Run(fmt.Sprintf("n%d", c.n), func(b *testing.B) {
			if corpus == nil {
				for seed := int64(1); seed <= 3; seed++ {
					e := ctx(b, c.n, cost.DefaultParams(), seed)
					for _, g := range gaCorpus(e, SizedSettings(c.pop, c.gens), uint64(seed)) {
						corpus = append(corpus, sample{e, g})
					}
				}
				b.Logf("%d graphs", len(corpus))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := corpus[i%len(corpus)]
				s.e.CostUncached(s.g)
			}
		})
	}
}
