package cold

// Golden-file determinism fixtures: full Generate runs under pinned seeds,
// exported as JSON and byte-compared against checked-in files. Any change
// to randomness consumption, routing tie-breaks, evaluator kernels or
// export encoding shows up here as a diff — which is the point: this
// package promises that equal (Config, Seed) pairs produce identical
// networks across releases.
//
// To bless intentional changes, regenerate the fixtures and review the
// diff:
//
//	go test . -run TestGoldenGenerate -update
//
// The fixtures are blessed on linux/amd64. Go may fuse a*b+c into FMA on
// other architectures (notably arm64), which can perturb low-order float
// bits; if fixtures mismatch on such a platform, compare against amd64
// before suspecting a real regression.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures under results/golden/")

// goldenConfigs are the pinned configurations: A is the paper's default
// context at a small size; B stresses the alternate code paths (clustered
// locations, Pareto traffic, hub costs, heuristic seeding); "large" is the
// default context at n = 64, where the evaluator runs the heap kernel;
// "wide" runs a population of 40, above the size where the GA's cost sort
// once switched algorithms, so the ordering of larger populations is pinned.
func goldenConfigs(seed int64) map[string]Config {
	small := OptimizerSpec{PopulationSize: 24, Generations: 20}
	return map[string]Config{
		"default": {
			NumPoPs:     12,
			Seed:        seed,
			Parallelism: 1,
			Optimizer:   small,
		},
		"clustered": {
			NumPoPs:     14,
			Params:      Params{K0: 10, K1: 1, K2: 5e-4, K3: 20},
			Seed:        seed,
			Parallelism: 1,
			Locations:   LocationSpec{Kind: LocClustered, Clusters: 3, Sigma: 0.08},
			Traffic:     TrafficSpec{Kind: TrafficPareto, ParetoShape: 1.2},
			Optimizer: OptimizerSpec{
				PopulationSize:     24,
				Generations:        20,
				SeedWithHeuristics: true,
			},
		},
		"large": {
			NumPoPs:     64,
			Seed:        seed,
			Parallelism: 1,
			Optimizer:   OptimizerSpec{PopulationSize: 20, Generations: 8},
		},
		"wide": {
			NumPoPs:     12,
			Seed:        seed,
			Parallelism: 1,
			Optimizer:   OptimizerSpec{PopulationSize: 40, Generations: 10},
		},
	}
}

// goldenSeeds lists the pinned seeds of each golden configuration.
var goldenSeeds = map[string][]int64{
	"default":   {1, 2, 3},
	"clustered": {1, 2, 3},
	"large":     {1, 2},
	"wide":      {1, 2},
}

func goldenPath(name string, seed int64) string {
	return filepath.Join("results", "golden", fmt.Sprintf("%s_seed%d.json", name, seed))
}

// TestGoldenGenerate regenerates every pinned (config, seed) pair and
// byte-compares the JSON export against the checked-in fixture.
func TestGoldenGenerate(t *testing.T) {
	for _, name := range []string{"default", "clustered", "large", "wide"} {
		for _, seed := range goldenSeeds[name] {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				cfg := goldenConfigs(seed)[name]
				nw, err := Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := nw.Export(&buf, ExportJSON); err != nil {
					t.Fatal(err)
				}
				path := goldenPath(name, seed)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden fixture %s (regenerate with -update): %v", path, err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("output differs from %s (%d vs %d bytes).\n"+
						"If the change is intentional, regenerate with:\n"+
						"\tgo test . -run TestGoldenGenerate -update\n"+
						"and review the fixture diff.", path, buf.Len(), len(want))
				}
			})
		}
	}
}

// TestGoldenStableAcrossParallelism guards the determinism promise the
// fixtures encode: the same config at Parallelism 4 must export the same
// bytes as the checked-in Parallelism-1 fixture.
func TestGoldenStableAcrossParallelism(t *testing.T) {
	testGoldenAtParallelism4(t, "default")
}

// TestGoldenLargeStableAcrossParallelism is the same check for the n = 64
// fixture, where the GA's evaluation fan-out spreads work over clones.
func TestGoldenLargeStableAcrossParallelism(t *testing.T) {
	testGoldenAtParallelism4(t, "large")
}

func testGoldenAtParallelism4(t *testing.T, name string) {
	cfg := goldenConfigs(1)[name]
	cfg.Parallelism = 4
	nw, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nw.Export(&buf, ExportJSON); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath(name, 1))
	if err != nil {
		t.Skipf("golden fixture missing: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("Parallelism=4 output differs from the Parallelism=1 fixture")
	}
}
