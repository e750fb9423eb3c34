package core

// Statistical behaviour tests for the GA operators: selection bias,
// mutation change counts, and population-structure invariants.

import (
	"math"
	"testing"

	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/stats"
)

// TestTournamentPrefersCheap: with the population sorted by cost, the
// b=10/a=2 tournament must pick low-index (cheap) parents far more often
// than high-index ones, and the very worst members must effectively never
// parent (the paper: "ensures that the worst topologies will not become
// parents").
func TestTournamentPrefersCheap(t *testing.T) {
	e := ctx(t, 10, cost.DefaultParams(), 61)
	ga := newRunner(e, DefaultSettings(), 20)
	pop := ga.initialPopulation()
	costs := ga.evaluate(pop)
	sortByCost(pop, costs)

	// Count, over many tournaments, how often each index is among the
	// chosen parents.
	counts := make([]int, len(pop))
	sc := ga.scratches[0]
	rng := stats.NewRNG(stats.StreamSeed(20))
	const trials = 20000
	for i := 0; i < trials; i++ {
		cand := sc.sampleIndices(len(pop), tournamentB, &rng)
		for _, idx := range bestIndices(cand, tournamentA) {
			counts[idx]++
		}
	}
	// The cheapest decile must be selected much more often than the most
	// expensive decile.
	cheap, dear := 0, 0
	for i := 0; i < 10; i++ {
		cheap += counts[i]
	}
	for i := len(pop) - 10; i < len(pop); i++ {
		dear += counts[i]
	}
	if cheap < 20*max(dear, 1) {
		t.Errorf("tournament bias too weak: cheap decile %d vs dear decile %d", cheap, dear)
	}
	// With b=10 over 100 members, the single worst member can only be
	// picked if it lands in a tournament whose other 9 are all worse —
	// impossible for the maximum. It must never be chosen.
	if counts[len(pop)-1] != 0 {
		t.Errorf("worst member selected %d times", counts[len(pop)-1])
	}
}

// TestLinkMutationAverageChanges: with geometric(0.5) counts for both
// additions and removals, the expected number of link changes per mutation
// is two (paper §4.1.2).
func TestLinkMutationAverageChanges(t *testing.T) {
	e := ctx(t, 14, cost.DefaultParams(), 62)
	ga := newRunner(e, DefaultSettings(), 21)
	sc := ga.scratches[0]
	base := graph.MST(14, e.Dist())
	// Add some extra links so removals are rarely clamped.
	base.AddEdge(0, 5)
	base.AddEdge(2, 9)
	base.AddEdge(3, 11)
	const trials = 5000
	totalChanges := 0
	for i := 0; i < trials; i++ {
		g := base.Clone()
		rng := ga.stream(1, i)
		ga.linkMutation(g, &rng, sc)
		totalChanges += symmetricDifference(base, g)
	}
	mean := float64(totalChanges) / trials
	if math.Abs(mean-2) > 0.15 {
		t.Errorf("mean link changes = %v, want ~2", mean)
	}
}

func symmetricDifference(a, b *graph.Graph) int {
	diff := 0
	n := a.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if a.HasEdge(i, j) != b.HasEdge(i, j) {
				diff++
			}
		}
	}
	return diff
}

// TestMutationBiasTowardCheapParents: mutation parents are chosen with
// probability inversely proportional to cost.
func TestMutationBiasTowardCheapParents(t *testing.T) {
	weights := []float64{inverseCostWeight(1), inverseCostWeight(2), inverseCostWeight(4)}
	if !(weights[0] == 2*weights[1] && weights[1] == 2*weights[2]) {
		t.Errorf("inverse-cost weights wrong: %v", weights)
	}
}

// TestElitesSurviveExactly: after one generation, the NumSaved cheapest
// topologies of the previous generation are present unchanged.
func TestElitesSurviveExactly(t *testing.T) {
	e := ctx(t, 10, cost.Params{K0: 10, K1: 1, K2: 4e-4, K3: 10}, 63)
	s := DefaultSettings()
	s.PopulationSize = 20
	s.Generations = 2
	s.NumSaved = 4
	s.NumMutation = 6
	s.TrackHistory = true
	res, err := Run(e, s, uint64(22))
	if err != nil {
		t.Fatal(err)
	}
	// The generation-0 best cost must still be attained (or improved) by
	// the final population's best.
	if res.BestCost > res.History[0]+1e-9 {
		t.Errorf("final best %v worse than generation 0 best %v", res.BestCost, res.History[0])
	}
}

// TestPopulationAllConnected: every member of the final population is a
// usable (connected) network — the paper's "non-exclusive" GA advantage
// depends on it.
func TestPopulationAllConnected(t *testing.T) {
	e := ctx(t, 12, cost.DefaultParams(), 64)
	res, err := Run(e, smallSettings(), uint64(23))
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range res.Population {
		if !g.IsConnected() {
			t.Fatalf("population member %d disconnected", i)
		}
		if math.IsInf(res.Costs[i], 1) {
			t.Fatalf("population member %d has infinite cost", i)
		}
	}
}

// TestSeedsDominatedByConvergence: with aggressive settings on a small
// instance, the final population's median cost approaches the best cost
// (the paper: "the population reaches an almost-stable state").
func TestPopulationConverges(t *testing.T) {
	e := ctx(t, 8, cost.Params{K0: 10, K1: 1, K2: 1e-4, K3: 0}, 65)
	s := DefaultSettings()
	s.PopulationSize = 40
	s.Generations = 80
	s.NumSaved = 4
	s.NumMutation = 12
	res, err := Run(e, s, uint64(24))
	if err != nil {
		t.Fatal(err)
	}
	median := res.Costs[len(res.Costs)/2]
	if median > res.BestCost*1.25 {
		t.Errorf("population median %v far above best %v (not converged)", median, res.BestCost)
	}
}
