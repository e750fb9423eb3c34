package cold_test

// Benchmarks: one testing.B target per table/figure of the paper (scaled-
// down workloads — cmd/coldbench runs the full sweeps), plus ablation
// benches for the design decisions DESIGN.md calls out (array Dijkstra,
// cost memoization, heuristic seeding).

import (
	"context"
	"math/rand"
	"testing"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/core"
	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/dk"
	"github.com/networksynth/cold/internal/experiments"
	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/heuristics"
	"github.com/networksynth/cold/internal/randgraph"
	"github.com/networksynth/cold/internal/traffic"
	"github.com/networksynth/cold/internal/zoo"
)

// benchOptions keeps every experiment bench to sub-second iterations.
func benchOptions() experiments.Options {
	return experiments.Options{Trials: 2, N: 12, GAPop: 20, GAGens: 12, Bootstrap: 100, Seed: 1}
}

func benchEvaluator(b *testing.B, n int, p cost.Params, seed int64) *cost.Evaluator {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewUniform().Sample(n, rng)
	pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(n, rng)
	e, err := cost.NewEvaluator(geom.DistanceMatrix(pts), traffic.Gravity(pops, traffic.DefaultGravityScale), p)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// --- one bench per table/figure ---

func BenchmarkTable1Generators(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.Table1(o)
	}
}

func BenchmarkFig1DKCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randgraph.ER(40, 0.1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dk.CountDistinctSubgraphs(g, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2ThreeKMatch(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.Fig2(o)
	}
}

func BenchmarkFig3Algorithms(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.Fig3(0, o)
	}
}

func BenchmarkFig4GARuntime(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.Fig4([]int{8, 12}, o)
	}
}

// BenchmarkFig5Sweep covers the shared sweep behind Figures 5, 6 and 7.
func BenchmarkFig5Sweep(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r := experiments.TunabilitySweep(o)
		r.Fig5()
		r.Fig6()
		r.Fig7()
	}
}

func BenchmarkFig8aZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nets := zoo.Ensemble(60, rand.New(rand.NewSource(int64(i))))
		experiments.Fig8a(zoo.CVNDs(nets))
	}
}

// BenchmarkFig8bCVND covers the shared sweep behind Figures 8b and 9.
func BenchmarkFig8bCVND(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r := experiments.HubbinessSweep(o)
		r.Fig8b()
		r.Fig9()
	}
}

func BenchmarkBruteForce(b *testing.B) {
	e := benchEvaluator(b, 6, cost.DefaultParams(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.BruteForce(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContextSweep(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.ContextSensitivity(o)
	}
}

// --- ablation benches for DESIGN.md's decisions ---

// BenchmarkRoutingDijkstra measures one full cost evaluation (n source
// Dijkstras + load accumulation) at PoP scales.
func BenchmarkRoutingDijkstra(b *testing.B) {
	for _, n := range []int{30, 60, 100} {
		b.Run(sizeName(n), func(b *testing.B) {
			e := benchEvaluator(b, n, cost.DefaultParams(), 1)
			e.SetCacheLimit(0)
			rng := rand.New(rand.NewSource(2))
			g := randgraph.ER(n, 4/float64(n-1), rng)
			g.Connect(e.Dist())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Cost(g)
			}
		})
	}
}

// BenchmarkGACostCache quantifies the memoization win on a converged-style
// workload (repeated evaluation of identical graphs).
func BenchmarkGACostCache(b *testing.B) {
	for _, cached := range []bool{true, false} {
		name := "cached"
		if !cached {
			name = "uncached"
		}
		b.Run(name, func(b *testing.B) {
			e := benchEvaluator(b, 30, cost.DefaultParams(), 1)
			if !cached {
				e.SetCacheLimit(0)
			}
			rng := rand.New(rand.NewSource(3))
			g := randgraph.ER(30, 0.12, rng)
			g.Connect(e.Dist())
			e.Cost(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Cost(g)
			}
		})
	}
}

// BenchmarkGASeeding contrasts the plain GA with the initialised GA at
// equal GA budgets (the heuristics' extra cost is included).
func BenchmarkGASeeding(b *testing.B) {
	p := cost.Params{K0: 10, K1: 1, K2: 4e-4, K3: 10}
	settings := core.DefaultSettings()
	settings.PopulationSize = 30
	settings.Generations = 20
	settings.NumSaved = 3
	settings.NumMutation = 9
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := benchEvaluator(b, 20, p, int64(i))
			if _, err := core.Run(e, settings, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("initialised", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := benchEvaluator(b, 20, p, int64(i))
			rng := rand.New(rand.NewSource(int64(i)))
			s := settings
			s.Seeds = heuristics.Graphs(heuristics.All(context.Background(), e, rng))
			if _, err := core.Run(e, s, rng.Uint64()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGenerate measures the end-to-end public API.
func BenchmarkGenerate(b *testing.B) {
	cfg := cold.Config{
		NumPoPs:   20,
		Seed:      1,
		Optimizer: cold.OptimizerSpec{PopulationSize: 30, Generations: 20},
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := cold.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateEnsemble contrasts the serial path with the worker-pool
// ensemble engine (outputs are identical; only wall-clock changes). The
// parallel case uses all CPUs — on a single-core box the two coincide.
// The telemetry variants measure the recorder overhead (metrics on, no
// trace sink), which the telemetry layer promises stays under 2%.
func BenchmarkGenerateEnsemble(b *testing.B) {
	for _, par := range []int{1, 0} { // 1 = serial, 0 = GOMAXPROCS
		for _, telemetry := range []bool{false, true} {
			name := "serial"
			if par == 0 {
				name = "parallel"
			}
			if telemetry {
				name += "-telemetry"
			}
			b.Run(name, func(b *testing.B) {
				cfg := cold.Config{
					NumPoPs:     20,
					Seed:        1,
					Parallelism: par,
					Optimizer:   cold.OptimizerSpec{PopulationSize: 30, Generations: 20},
				}
				if telemetry {
					cfg.Telemetry = cold.NewTelemetry()
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cfg.Seed = int64(i)
					if _, err := cold.GenerateEnsemble(cfg, 8); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGAParallelEval measures the GA with parallel fitness
// evaluation (Settings.Parallelism) against the serial inner loop.
func BenchmarkGAParallelEval(b *testing.B) {
	for _, par := range []int{1, 4} {
		name := "serial"
		if par > 1 {
			name = "workers4"
		}
		b.Run(name, func(b *testing.B) {
			settings := core.DefaultSettings()
			settings.PopulationSize = 40
			settings.Generations = 15
			settings.NumSaved = 4
			settings.NumMutation = 12
			settings.Parallelism = par
			for i := 0; i < b.N; i++ {
				e := benchEvaluator(b, 30, cost.DefaultParams(), int64(i))
				if _, err := core.Run(e, settings, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 30:
		return "n30"
	case 60:
		return "n60"
	case 100:
		return "n100"
	default:
		return "n"
	}
}
