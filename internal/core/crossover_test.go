package core

// Equivalence tests for the word-parallel crossover: it must consume the
// same draws and build the same child as the per-link walk it replaced,
// which is kept here as referenceCrossover. The goldens and the config
// hashes pin whole runs; these tests pin the operator itself, at sizes
// that put row ends on both sides of 64-bit word boundaries and at the
// weight corners of the parent draw.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/stats"
)

// referenceCrossover is crossover as a per-link loop: the tournament, then
// one stats.WeightedIndex draw over the two parents' weights for every
// potential link {i<j} in row-major order, copying the link from the
// parent drawn.
func referenceCrossover(ga *runner, child *graph.Graph, pop []*graph.Graph, costs []float64, rng *stats.RNG, sc *breedScratch) {
	b := min(tournamentB, len(pop))
	a := min(tournamentA, b)
	cand := sc.sampleIndices(len(pop), b, rng)
	parents := bestIndices(cand, a)
	weights := make([]float64, 0, a)
	for _, pi := range parents {
		weights = append(weights, inverseCostWeight(costs[pi]))
	}
	uniformIfAllZero(weights)
	child.Clear()
	for i := 0; i < ga.n; i++ {
		for j := i + 1; j < ga.n; j++ {
			p := pop[parents[stats.WeightedIndex(weights, rng)]]
			if p.HasEdge(i, j) {
				child.AddEdge(i, j)
			}
		}
	}
	child.Connect(ga.e.Dist())
}

// crossoverRunner returns a serial runner over a fixed context on n PoPs.
func crossoverRunner(t testing.TB, n int) *runner {
	t.Helper()
	return newRunner(ctx(t, n, cost.DefaultParams(), int64(n)), DefaultSettings(), 1)
}

// randomPopulation returns m random graphs on n nodes, each with its own
// link density in [0.05, 0.65).
func randomPopulation(rng *rand.Rand, n, m int) []*graph.Graph {
	pop := make([]*graph.Graph, m)
	for k := range pop {
		p := 0.05 + 0.6*rng.Float64()
		g := graph.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					g.AddEdge(i, j)
				}
			}
		}
		pop[k] = g
	}
	return pop
}

// checkCrossoverMatchesReference builds children on the streams of
// generation 1, slots 0..children-1, with crossover and with
// referenceCrossover, into storage that held other graphs, and fails
// unless the children and the streams' states afterwards are identical.
func checkCrossoverMatchesReference(t *testing.T, label string, n int, pop []*graph.Graph, costs []float64, children int) {
	t.Helper()
	ga := crossoverRunner(t, n)
	ref := crossoverRunner(t, n)
	got, want := graph.Complete(n), graph.Complete(n)
	for slot := 0; slot < children; slot++ {
		rg, rw := ga.stream(1, slot), ref.stream(1, slot)
		ga.crossover(got, pop, costs, &rg, ga.scratches[0])
		referenceCrossover(ref, want, pop, costs, &rw, ref.scratches[0])
		if !got.Equal(want) || got.NumEdges() != want.NumEdges() {
			t.Fatalf("%s slot %d: child %v (%d edges), reference %v (%d edges)",
				label, slot, got, got.NumEdges(), want, want.NumEdges())
		}
		if rg != rw {
			t.Fatalf("%s slot %d: stream state after crossover differs from the reference's", label, slot)
		}
	}
}

// TestCrossoverMatchesReference covers node counts on both sides of the
// word boundaries and the corners of the two-parent draw: every cost +Inf
// (the uniform fallback), non-positive costs (both weights 1e18), one
// weight zero on either side, a denormal cost whose weight overflows to
// +Inf, identical parents, and a 20-member tournament with mixed costs.
func TestCrossoverMatchesReference(t *testing.T) {
	inf := math.Inf(1)
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{2, 3, 20, 30, 63, 64, 65, 128, 130} {
		pair := randomPopulation(rng, n, 2)
		for _, c := range []struct {
			name  string
			costs []float64
		}{
			{"all-inf", []float64{inf, inf}},
			{"non-positive", []float64{0, -3}},
			{"w0-zero", []float64{inf, 7}},
			{"w1-zero", []float64{7, inf}},
			{"w0-inf", []float64{1e-310, 2}},
			{"w1-inf", []float64{2, 1e-310}},
			{"finite", []float64{3, 11}},
		} {
			checkCrossoverMatchesReference(t, fmt.Sprintf("n=%d %s", n, c.name), n, pair, c.costs, 6)
		}
		same := []*graph.Graph{pair[0], pair[0]}
		checkCrossoverMatchesReference(t, fmt.Sprintf("n=%d identical", n), n, same, []float64{3, 5}, 6)

		pop := randomPopulation(rng, n, 20)
		costs := make([]float64, len(pop))
		for i := range costs {
			costs[i] = 1 + rng.Float64()*100
			if i%5 == 3 {
				costs[i] = inf
			}
		}
		checkCrossoverMatchesReference(t, fmt.Sprintf("n=%d tournament", n), n, pop, costs, 12)
	}
}

// FuzzCrossoverEquivalence drives the crossover and its reference from
// the same stream over fuzzed node counts (2..130), populations (2..8
// members drawn from seed) and the costs of the even and odd members.
func FuzzCrossoverEquivalence(f *testing.F) {
	f.Add(uint8(28), uint64(1), 120.0, 300.0)
	f.Add(uint8(62), uint64(2), math.Inf(1), math.Inf(1))
	f.Add(uint8(63), uint64(3), 0.0, -1.0)
	f.Add(uint8(126), uint64(4), 5e-324, 1.0)
	f.Add(uint8(0), uint64(5), math.NaN(), 2.0)
	f.Fuzz(func(t *testing.T, nb uint8, seed uint64, c0, c1 float64) {
		n := 2 + int(nb)%129
		rng := rand.New(rand.NewSource(int64(seed)))
		pop := randomPopulation(rng, n, 2+int(seed%7))
		costs := make([]float64, len(pop))
		for i := range costs {
			costs[i] = c0
			if i%2 == 1 {
				costs[i] = c1
			}
		}
		checkCrossoverMatchesReference(t, fmt.Sprintf("n=%d seed=%d costs=(%v,%v)", n, seed, c0, c1), n, pop, costs, 3)
	})
}

// BenchmarkCrossover times one crossover child from a sorted, evaluated
// initial population under the default Params, at the paper's sizes and
// at n=128. BenchmarkGAPaperScaleN30 runs K2 = 4e-4 and K3 = 10 rather
// than the defaults the paper-ensemble perfbench workload runs; its
// candidates are meshier and cost more to route, so it understates
// crossover's share of a run.
func BenchmarkCrossover(b *testing.B) {
	for _, n := range []int{20, 30, 128} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			ga := newRunner(ctx(b, n, cost.DefaultParams(), 1), DefaultSettings(), 1)
			pop := ga.initialPopulation()
			costs := ga.evaluate(pop)
			sortByCost(pop, costs)
			child, sc := graph.New(n), ga.scratches[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := ga.stream(1, i)
				ga.crossover(child, pop, costs, &rng, sc)
			}
		})
	}
}
