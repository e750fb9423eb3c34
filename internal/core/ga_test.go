package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/heuristics"
	"github.com/networksynth/cold/internal/traffic"
)

func ctx(t testing.TB, n int, p cost.Params, seed int64) *cost.Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewUniform().Sample(n, rng)
	pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(n, rng)
	e, err := cost.NewEvaluator(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1), p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func smallSettings() Settings {
	s := DefaultSettings()
	s.PopulationSize = 30
	s.Generations = 30
	s.NumSaved = 4
	s.NumMutation = 10
	return s
}

func TestDefaultSettingsValid(t *testing.T) {
	if err := DefaultSettings().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSettingsValidation(t *testing.T) {
	bad := []func(*Settings){
		func(s *Settings) { s.PopulationSize = 1 },
		func(s *Settings) { s.Generations = 0 },
		func(s *Settings) { s.NumSaved = 0 },
		func(s *Settings) { s.NumSaved = 90; s.NumMutation = 20 },
		func(s *Settings) { s.Parallelism = -1 },
	}
	for i, mutate := range bad {
		s := DefaultSettings()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: settings should be invalid: %+v", i, s)
		}
	}
}

func TestRunProducesConnectedResult(t *testing.T) {
	e := ctx(t, 15, cost.DefaultParams(), 1)
	res, err := Run(e, smallSettings(), uint64(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || !res.Best.IsConnected() {
		t.Fatal("GA best must be connected")
	}
	if math.IsInf(res.BestCost, 1) {
		t.Fatal("GA best cost infinite")
	}
	if len(res.Population) != 30 || len(res.Costs) != 30 {
		t.Fatalf("population size %d, costs %d", len(res.Population), len(res.Costs))
	}
	// Population sorted ascending, best first.
	for i := 1; i < len(res.Costs); i++ {
		if res.Costs[i] < res.Costs[i-1] {
			t.Fatal("final population not sorted by cost")
		}
	}
	if res.Costs[0] != res.BestCost || !res.Population[0].Equal(res.Best) {
		t.Fatal("Best must be the first population member")
	}
	if got := e.Cost(res.Best); math.Abs(got-res.BestCost) > 1e-9 {
		t.Fatalf("BestCost %v != recomputed %v", res.BestCost, got)
	}
}

func TestRunDeterministic(t *testing.T) {
	e1 := ctx(t, 12, cost.DefaultParams(), 7)
	e2 := ctx(t, 12, cost.DefaultParams(), 7)
	r1, err := Run(e1, smallSettings(), uint64(42))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(e2, smallSettings(), uint64(42))
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestCost != r2.BestCost || !r1.Best.Equal(r2.Best) {
		t.Fatal("identical seeds must give identical results")
	}
}

func TestHistoryMonotoneNonIncreasing(t *testing.T) {
	e := ctx(t, 15, cost.Params{K0: 10, K1: 1, K2: 4e-4, K3: 10}, 3)
	s := smallSettings()
	s.TrackHistory = true
	res, err := Run(e, s, uint64(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != s.Generations {
		t.Fatalf("history length %d, want %d", len(res.History), s.Generations)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]+1e-9 {
			t.Fatalf("elitism violated: best cost rose at generation %d (%v -> %v)",
				i, res.History[i-1], res.History[i])
		}
	}
}

func TestGABeatsOrMatchesMSTAndClique(t *testing.T) {
	// The MST and clique are in the initial population, so the result can
	// never be worse than either.
	for _, p := range []cost.Params{
		{K0: 10, K1: 1, K2: 2.5e-5, K3: 0},
		{K0: 10, K1: 1, K2: 1.6e-3, K3: 0},
		{K0: 10, K1: 1, K2: 1e-4, K3: 100},
	} {
		e := ctx(t, 12, p, 5)
		res, err := Run(e, smallSettings(), uint64(2))
		if err != nil {
			t.Fatal(err)
		}
		mst := e.Cost(graph.MST(12, e.Dist()))
		clique := e.Cost(graph.Complete(12))
		if res.BestCost > mst+1e-9 || res.BestCost > clique+1e-9 {
			t.Errorf("params %v: GA %v worse than MST %v or clique %v", p, res.BestCost, mst, clique)
		}
	}
}

func TestInitialisedGABeatsSeeds(t *testing.T) {
	// Seeding with heuristics guarantees the GA is at least as good as
	// every heuristic (the paper's key argument for the initialised GA).
	p := cost.Params{K0: 10, K1: 1, K2: 4e-4, K3: 10}
	e := ctx(t, 12, p, 11)
	hs := heuristics.All(context.Background(), e, rand.New(rand.NewSource(3)))
	s := smallSettings()
	s.Seeds = heuristics.Graphs(hs)
	res, err := Run(e, s, uint64(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs {
		if res.BestCost > h.Cost+1e-9 {
			t.Errorf("initialised GA %v worse than seed %s %v", res.BestCost, h.Name, h.Cost)
		}
	}
}

func TestGAFindsBruteForceOptimumSmallN(t *testing.T) {
	// §5: "for networks of up to 8 PoPs the GA always finds the real
	// optimal solution". Verify on 6-PoP contexts across cost regimes.
	params := []cost.Params{
		{K0: 10, K1: 1, K2: 1e-4, K3: 0},
		{K0: 10, K1: 1, K2: 1.6e-3, K3: 0},
		{K0: 10, K1: 1, K2: 1e-4, K3: 50},
	}
	for _, p := range params {
		for seed := int64(0); seed < 2; seed++ {
			e := ctx(t, 6, p, seed)
			opt, err := heuristics.BruteForce(e)
			if err != nil {
				t.Fatal(err)
			}
			s := DefaultSettings()
			s.PopulationSize = 40
			s.Generations = 60
			s.NumSaved = 5
			s.NumMutation = 14
			res, err := Run(e, s, uint64(seed+1))
			if err != nil {
				t.Fatal(err)
			}
			if res.BestCost > opt.Cost*(1+1e-9) {
				t.Errorf("params %v seed %d: GA %v missed optimum %v", p, seed, res.BestCost, opt.Cost)
			}
		}
	}
}

func TestK3DominantGivesStar(t *testing.T) {
	// When the hub cost dominates, the optimum has a single core node.
	e := ctx(t, 10, cost.Params{K0: 1, K1: 1, K2: 1e-7, K3: 1e5}, 13)
	res, err := Run(e, smallSettings(), uint64(5))
	if err != nil {
		t.Fatal(err)
	}
	if hubs := len(res.Best.CoreNodes()); hubs != 1 {
		t.Errorf("k3-dominant GA result has %d hubs, want 1 (%v)", hubs, res.Best)
	}
}

func TestK2DominantGivesDenser(t *testing.T) {
	lo := ctx(t, 12, cost.Params{K0: 10, K1: 1, K2: 1e-6, K3: 0}, 17)
	hi := ctx(t, 12, cost.Params{K0: 10, K1: 1, K2: 5e-2, K3: 0}, 17)
	rlo, err := Run(lo, smallSettings(), uint64(6))
	if err != nil {
		t.Fatal(err)
	}
	rhi, err := Run(hi, smallSettings(), uint64(6))
	if err != nil {
		t.Fatal(err)
	}
	if rhi.Best.NumEdges() <= rlo.Best.NumEdges() {
		t.Errorf("high k2 (%d edges) should be denser than low k2 (%d edges)",
			rhi.Best.NumEdges(), rlo.Best.NumEdges())
	}
}

func TestRunErrors(t *testing.T) {
	e := ctx(t, 8, cost.DefaultParams(), 1)
	s := smallSettings()
	s.PopulationSize = 1
	if _, err := Run(e, s, uint64(1)); err == nil {
		t.Error("invalid settings should error")
	}
	s = smallSettings()
	s.Seeds = []*graph.Graph{graph.New(5)}
	if _, err := Run(e, s, uint64(1)); err == nil {
		t.Error("wrong-size seed should error")
	}
}

func TestMutationPreservesConnectivity(t *testing.T) {
	e := ctx(t, 12, cost.DefaultParams(), 19)
	ga := newRunner(e, DefaultSettings(), 7)
	pop := ga.initialPopulation()
	costs := ga.evaluate(pop)
	sortByCost(pop, costs)
	ga.prepBreeding(costs)
	sc := ga.scratches[0]
	child := graph.New(12) // reused: every mutation overwrites it whole
	for i := 0; i < 200; i++ {
		rng := ga.stream(1, i)
		ga.mutate(child, pop, &rng, sc)
		if !child.IsConnected() {
			t.Fatal("mutation produced disconnected child after repair")
		}
	}
}

func TestCrossoverPreservesConnectivity(t *testing.T) {
	e := ctx(t, 12, cost.DefaultParams(), 23)
	ga := newRunner(e, DefaultSettings(), 8)
	pop := ga.initialPopulation()
	costs := ga.evaluate(pop)
	sortByCost(pop, costs)
	sc := ga.scratches[0]
	child := graph.New(12) // reused: every crossover overwrites it whole
	for i := 0; i < 200; i++ {
		rng := ga.stream(1, i)
		ga.crossover(child, pop, costs, &rng, sc)
		if !child.IsConnected() {
			t.Fatal("crossover produced disconnected child after repair")
		}
	}
}

func TestCrossoverOfIdenticalParentsIsParent(t *testing.T) {
	// If every population member is the same graph, crossover must
	// reproduce it exactly (before repair, which then changes nothing).
	e := ctx(t, 10, cost.DefaultParams(), 29)
	base := graph.MST(10, e.Dist())
	pop := make([]*graph.Graph, 20)
	costs := make([]float64, 20)
	for i := range pop {
		pop[i] = base
		costs[i] = e.Cost(base)
	}
	ga := newRunner(e, DefaultSettings(), 9)
	sc := ga.scratches[0]
	child := graph.Complete(10) // dirty storage: crossover must clear it
	for i := 0; i < 20; i++ {
		rng := ga.stream(1, i)
		ga.crossover(child, pop, costs, &rng, sc)
		if !child.Equal(base) {
			t.Fatal("crossover of identical parents changed the graph")
		}
	}
}

func TestNodeMutationMakesLeaf(t *testing.T) {
	e := ctx(t, 10, cost.DefaultParams(), 31)
	ga := newRunner(e, DefaultSettings(), 10)
	g := graph.Complete(10)
	before := len(g.CoreNodes())
	rng := ga.stream(1, 0)
	ga.nodeMutation(g, &rng, ga.scratches[0])
	after := len(g.CoreNodes())
	if after >= before {
		t.Errorf("node mutation did not reduce core nodes: %d -> %d", before, after)
	}
	leaves := 0
	for i := 0; i < 10; i++ {
		if g.IsLeaf(i) {
			leaves++
		}
	}
	if leaves != 1 {
		t.Errorf("expected exactly one new leaf, got %d", leaves)
	}
}

func TestNodeMutationOnStarIsNoop(t *testing.T) {
	e := ctx(t, 6, cost.DefaultParams(), 37)
	ga := newRunner(e, DefaultSettings(), 11)
	star := graph.New(6)
	for v := 1; v < 6; v++ {
		star.AddEdge(0, v)
	}
	want := star.Clone()
	rng := ga.stream(1, 0)
	ga.nodeMutation(star, &rng, ga.scratches[0])
	if !star.Equal(want) {
		t.Error("node mutation should be a no-op on a star (single core node)")
	}
}

func TestLinkMutationBounded(t *testing.T) {
	e := ctx(t, 8, cost.DefaultParams(), 41)
	ga := newRunner(e, DefaultSettings(), 12)
	sc := ga.scratches[0]
	for i := 0; i < 100; i++ {
		g := graph.Complete(8)
		rng := ga.stream(1, i)
		ga.linkMutation(g, &rng, sc)
		if g.NumEdges() > 28 {
			t.Fatal("link mutation exceeded complete graph")
		}
	}
	// On an empty-ish graph, additions cannot loop forever.
	g := graph.MST(8, e.Dist())
	for i := 0; i < 100; i++ {
		rng := ga.stream(2, i)
		ga.linkMutation(g, &rng, sc)
	}
	// Near-complete graphs were the degenerate case for the old rejection
	// sampler: with one absent pair, additions clamp to it and the loop
	// stays bounded.
	for i := 0; i < 200; i++ {
		g := graph.Complete(8)
		g.RemoveEdge(0, 1)
		rng := ga.stream(3, i)
		ga.linkMutation(g, &rng, sc)
		if g.NumEdges() > 28 {
			t.Fatal("link mutation exceeded complete graph from near-complete start")
		}
	}
}

func TestInverseCostWeight(t *testing.T) {
	if inverseCostWeight(math.Inf(1)) != 0 {
		t.Error("infinite cost should weigh 0")
	}
	if inverseCostWeight(math.NaN()) != 0 {
		t.Error("NaN cost should weigh 0")
	}
	if inverseCostWeight(2) != 0.5 {
		t.Error("finite weight wrong")
	}
	if inverseCostWeight(0) <= 0 {
		t.Error("zero cost should weigh heavily, not crash")
	}
}

func TestBestIndices(t *testing.T) {
	got := bestIndices([]int{5, 2, 9, 1, 7}, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("bestIndices = %v, want [1 2]", got)
	}
}

func TestSortByCost(t *testing.T) {
	gs := []*graph.Graph{graph.New(2), graph.New(3), graph.New(4)}
	cs := []float64{3, 1, 2}
	sortByCost(gs, cs)
	if cs[0] != 1 || cs[1] != 2 || cs[2] != 3 {
		t.Fatalf("costs after sort: %v", cs)
	}
	if gs[0].N() != 3 || gs[1].N() != 4 || gs[2].N() != 2 {
		t.Fatal("graphs not permuted with costs")
	}
}

// insertionSortByCost is the oracle for sortByCost: the historical stable
// insertion sort, whose permutation every GA run is pinned to.
func insertionSortByCost(pop []*graph.Graph, costs []float64) {
	for i := 1; i < len(pop); i++ {
		g, c := pop[i], costs[i]
		j := i - 1
		for j >= 0 && costs[j] > c {
			pop[j+1], costs[j+1] = pop[j], costs[j]
			j--
		}
		pop[j+1], costs[j+1] = g, c
	}
}

// TestSortByCostMatchesInsertionOracle compares sortByCost with the
// insertion-sort oracle on cost slices with many ties and +Inf entries, at
// sizes on both sides of the old algorithm switch (M = 32).
func TestSortByCostMatchesInsertionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, m := range []int{2, 31, 32, 100, 1000} {
		for trial := 0; trial < 20; trial++ {
			pop := make([]*graph.Graph, m)
			costs := make([]float64, m)
			for i := range pop {
				pop[i] = graph.New(1)
				costs[i] = float64(rng.Intn(5))
				if rng.Intn(4) == 0 {
					costs[i] = math.Inf(1)
				}
			}
			wantPop := append([]*graph.Graph(nil), pop...)
			wantCosts := append([]float64(nil), costs...)
			insertionSortByCost(wantPop, wantCosts)
			sortByCost(pop, costs)
			for i := range pop {
				if pop[i] != wantPop[i] || costs[i] != wantCosts[i] {
					t.Fatalf("M=%d trial %d: slot %d differs from the insertion-sort oracle", m, trial, i)
				}
			}
		}
	}
}

// overflowContext is a context in which every topology's cost overflows
// to +Inf: k2 is so large that any positive bandwidth term is infinite.
func overflowContext(t *testing.T, n int) *cost.Evaluator {
	t.Helper()
	e := ctx(t, n, cost.Params{K0: 10, K1: 1, K2: 1e306, K3: 1}, 67)
	if c := e.Cost(graph.Complete(n)); !math.IsInf(c, 1) {
		t.Fatalf("clique cost %v, want +Inf", c)
	}
	return e
}

// TestBreedingWithAllInfiniteCosts: when every candidate has infinite cost
// the weighted draws fall back to uniform picks instead of panicking.
func TestBreedingWithAllInfiniteCosts(t *testing.T) {
	e := overflowContext(t, 8)
	ga := newRunner(e, smallSettings(), 71)
	pop := ga.initialPopulation()
	costs := ga.evaluate(pop)
	sortByCost(pop, costs)
	ga.prepBreeding(costs)
	sc := ga.scratches[0]
	child := graph.New(8)
	for i := 0; i < 20; i++ {
		rng := ga.stream(1, i)
		if ga.mutate(child, pop, &rng, sc); !child.IsConnected() {
			t.Fatal("mutation produced a disconnected child")
		}
		if ga.crossover(child, pop, costs, &rng, sc); !child.IsConnected() {
			t.Fatal("crossover produced a disconnected child")
		}
	}
}

// TestRunStopsWithoutFiniteCost: a run whose initial population has no
// finite cost stops after generation 0 and reports BestCost = +Inf.
func TestRunStopsWithoutFiniteCost(t *testing.T) {
	e := overflowContext(t, 8)
	s := smallSettings()
	s.TrackHistory = true
	res, err := Run(e, s, 73)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.BestCost, 1) || len(res.History) != 1 {
		t.Fatalf("BestCost %v after %d generations, want +Inf after 1", res.BestCost, len(res.History))
	}
	if res.Evaluations != uint64(s.PopulationSize) {
		t.Fatalf("evaluations = %d, want one generation's %d", res.Evaluations, s.PopulationSize)
	}
}

func TestInitialPopulationComposition(t *testing.T) {
	e := ctx(t, 10, cost.DefaultParams(), 43)
	s := smallSettings()
	seed := graph.Complete(10)
	seed.RemoveEdge(0, 1)
	s.Seeds = []*graph.Graph{seed}
	ga := newRunner(e, s, 13)
	pop := ga.initialPopulation()
	if len(pop) != s.PopulationSize {
		t.Fatalf("population size %d", len(pop))
	}
	if !pop[0].Equal(graph.MST(10, e.Dist())) {
		t.Error("first member should be the MST")
	}
	if !pop[1].Equal(graph.Complete(10)) {
		t.Error("second member should be the clique")
	}
	if !pop[2].Equal(seed) {
		t.Error("third member should be the provided seed")
	}
	for i, g := range pop {
		if !g.IsConnected() {
			t.Fatalf("initial member %d disconnected", i)
		}
	}
	// Seeds must be cloned: mutating the population must not touch the
	// caller's graph.
	pop[2].RemoveEdge(2, 3)
	if !seed.HasEdge(2, 3) {
		t.Error("initial population shares storage with caller's seed")
	}
}

func TestEvaluationsCounted(t *testing.T) {
	e := ctx(t, 8, cost.DefaultParams(), 47)
	s := smallSettings()
	res, err := Run(e, s, uint64(14))
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(s.PopulationSize * s.Generations)
	if res.Evaluations != want {
		t.Errorf("evaluations = %d, want %d", res.Evaluations, want)
	}
}

func BenchmarkGAPaperScaleN30(b *testing.B) {
	e := ctx(b, 30, cost.Params{K0: 10, K1: 1, K2: 4e-4, K3: 10}, 1)
	s := DefaultSettings()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(e, s, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
