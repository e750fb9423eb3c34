package core

// Tests for the deterministic-parallel GA: breeding and fitness evaluation
// both fan out across Settings.Parallelism, and per-offspring rng streams
// keyed by (runSeed, generation, slot) must make every run bit-identical to
// serial regardless of worker count, chunking, or evaluation order.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

func parallelTestEvaluator(t testing.TB, n int, seed int64) *cost.Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewUniform().Sample(n, rng)
	pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(n, rng)
	e, err := cost.NewEvaluator(geom.DistanceMatrix(pts), traffic.Gravity(pops, traffic.DefaultGravityScale), cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRunParallelMatchesSerial: complete bit-identity of a serial run and
// parallel runs at several worker counts, across several run seeds — best,
// history, evaluation count, and the entire final population.
func TestRunParallelMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{5, 77, 90210} {
		s := DefaultSettings()
		s.PopulationSize = 24
		s.Generations = 12
		s.NumSaved = 3
		s.NumMutation = 7
		s.TrackHistory = true

		a, err := Run(parallelTestEvaluator(t, 14, 9), s, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 8} {
			s.Parallelism = par
			b, err := Run(parallelTestEvaluator(t, 14, 9), s, seed)
			if err != nil {
				t.Fatal(err)
			}

			if a.BestCost != b.BestCost {
				t.Fatalf("seed %d parallelism %d: best cost %v vs serial %v", seed, par, b.BestCost, a.BestCost)
			}
			if !a.Best.Equal(b.Best) {
				t.Fatalf("seed %d parallelism %d: best topology differs from serial", seed, par)
			}
			if a.Evaluations != b.Evaluations {
				t.Fatalf("seed %d parallelism %d: %d evaluations vs serial %d", seed, par, b.Evaluations, a.Evaluations)
			}
			if len(a.History) != len(b.History) {
				t.Fatalf("seed %d parallelism %d: history lengths differ", seed, par)
			}
			for i := range a.History {
				if a.History[i] != b.History[i] {
					t.Fatalf("seed %d parallelism %d: history diverges at generation %d", seed, par, i)
				}
			}
			for i := range a.Costs {
				if a.Costs[i] != b.Costs[i] {
					t.Fatalf("seed %d parallelism %d: final population cost %d differs", seed, par, i)
				}
				if !a.Population[i].Equal(b.Population[i]) {
					t.Fatalf("seed %d parallelism %d: final population member %d differs", seed, par, i)
				}
			}
		}
	}
}

// TestBreedIndependentOfWorkerCount exercises the breeding stage in
// isolation: the offspring written at every slot must be identical whether
// one goroutine builds them all in order or eight build them chunked — the
// per-slot streams decouple an offspring's randomness from construction
// order.
func TestBreedIndependentOfWorkerCount(t *testing.T) {
	const seed = 42
	run := func(par int) []*graph.Graph {
		s := DefaultSettings()
		s.PopulationSize = 30
		s.Generations = 1
		s.NumSaved = 4
		s.NumMutation = 9
		s.Parallelism = par
		ga := newRunner(parallelTestEvaluator(t, 12, 3), s, seed)
		pop := ga.initialPopulation()
		costs := ga.evaluate(pop)
		sortByCost(pop, costs)
		next := make([]*graph.Graph, len(pop))
		ga.breed(1, pop, costs, next)
		return next
	}
	serial := run(1)
	for _, par := range []int{2, 8} {
		parallel := run(par)
		for slot := range serial {
			if !serial[slot].Equal(parallel[slot]) {
				t.Fatalf("parallelism %d: offspring at slot %d differs from serial", par, slot)
			}
		}
	}
}

// TestWorkClaimingMatchesSerial: with breeding and evaluation handing out
// slots to whichever goroutine claims them next, every generation's
// sorted population and costs must equal the serial run's at each
// parallelism — including 7, which divides neither the population nor
// its non-elite part.
func TestWorkClaimingMatchesSerial(t *testing.T) {
	type generation struct {
		pop   []*graph.Graph
		costs []float64
	}
	run := func(par int) []generation {
		s := DefaultSettings()
		s.PopulationSize = 26
		s.NumSaved = 5
		s.NumMutation = 8
		s.Parallelism = par
		ga := newRunner(parallelTestEvaluator(t, 16, 4), s, 314)
		pop := ga.initialPopulation()
		costs := ga.evaluate(pop)
		sortByCost(pop, costs)
		next := make([]*graph.Graph, len(pop))
		var gens []generation
		for gen := 1; gen <= 8; gen++ {
			ga.breed(gen, pop, costs, next)
			pop, next = next, pop
			costs = ga.evaluate(pop)
			sortByCost(pop, costs)
			snap := generation{costs: append([]float64(nil), costs...)}
			for _, g := range pop {
				snap.pop = append(snap.pop, g.Clone())
			}
			gens = append(gens, snap)
		}
		return gens
	}
	serial := run(1)
	for _, par := range []int{2, 4, 7} {
		for gen, got := range run(par) {
			want := serial[gen]
			for i := range want.pop {
				if got.costs[i] != want.costs[i] || !got.pop[i].Equal(want.pop[i]) {
					t.Fatalf("parallelism %d generation %d: member %d differs from serial", par, gen+1, i)
				}
			}
		}
	}
}

// TestClaimEachVisitsEveryIndexOnce: every index is handed out exactly
// once, to a goroutine number in [0, nw), for counts below, at and above
// the goroutine count.
func TestClaimEachVisitsEveryIndexOnce(t *testing.T) {
	for _, c := range []struct{ nw, count int }{{2, 1}, {3, 3}, {4, 50}, {7, 100}} {
		var mu sync.Mutex
		seen := make([]int, c.count)
		claimEach(c.nw, c.count, func(k, i int) {
			if k < 0 || k >= c.nw {
				t.Errorf("nw %d: goroutine number %d", c.nw, k)
			}
			mu.Lock()
			seen[i]++
			mu.Unlock()
		})
		for i, times := range seen {
			if times != 1 {
				t.Fatalf("nw %d count %d: index %d claimed %d times", c.nw, c.count, i, times)
			}
		}
	}
}

func TestRunContextCancelled(t *testing.T) {
	e := parallelTestEvaluator(t, 30, 3)
	s := DefaultSettings()
	s.Generations = 1000000

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunContext(ctx, e, s, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestValidateRejectsNegativeParallelism(t *testing.T) {
	s := DefaultSettings()
	s.Parallelism = -1
	if err := s.Validate(); err == nil {
		t.Fatal("negative parallelism must fail validation")
	}
}

// BenchmarkGABreeding isolates the breeding stage (initial population +
// offspring construction + repair) at serial and parallel settings: the
// per-offspring streams are what allow the workers4 case to use more than
// one core. A large population with few generations keeps breeding, not
// fitness evaluation, the dominant term.
func BenchmarkGABreeding(b *testing.B) {
	for _, par := range []int{1, 4} {
		name := "serial"
		if par > 1 {
			name = "workers4"
		}
		b.Run(name, func(b *testing.B) {
			s := DefaultSettings()
			s.PopulationSize = 120
			s.Generations = 6
			s.NumSaved = 12
			s.NumMutation = 36
			s.Parallelism = par
			e := parallelTestEvaluator(b, 20, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(e, s, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
