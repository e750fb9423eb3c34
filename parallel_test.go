package cold

// Tests for the parallel ensemble engine and the context-based API:
// bit-identical results at every parallelism, prompt cancellation, and
// up-front config validation.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func networksEqual(t *testing.T, a, b *Network) {
	t.Helper()
	if a.Cost != b.Cost {
		t.Fatalf("costs differ: %+v vs %+v", a.Cost, b.Cost)
	}
	if len(a.Links) != len(b.Links) {
		t.Fatalf("link counts differ: %d vs %d", len(a.Links), len(b.Links))
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, a.Links[i], b.Links[i])
		}
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs", i)
		}
	}
}

func TestEnsembleParallelMatchesSerial(t *testing.T) {
	const count = 6
	serialCfg := fastConfig(10, 3)
	serialCfg.Parallelism = 1
	parallelCfg := fastConfig(10, 3)
	parallelCfg.Parallelism = 4

	serial, err := GenerateEnsemble(serialCfg, count)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := GenerateEnsemble(parallelCfg, count)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != count || len(parallel) != count {
		t.Fatalf("sizes: %d vs %d, want %d", len(serial), len(parallel), count)
	}
	for i := range serial {
		networksEqual(t, serial[i], parallel[i])
	}
}

func TestGenerateParallelGAEvalMatchesSerial(t *testing.T) {
	serialCfg := fastConfig(10, 5)
	serialCfg.Parallelism = 1
	parallelCfg := fastConfig(10, 5)
	parallelCfg.Parallelism = 4

	a, err := Generate(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	networksEqual(t, a, b)
}

func TestGenerateEnsembleContextCancel(t *testing.T) {
	cfg := Config{
		NumPoPs:     40,
		Seed:        1,
		Parallelism: 2,
		Optimizer:   OptimizerSpec{PopulationSize: 100, Generations: 100000},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	nets, err := GenerateEnsembleContext(ctx, cfg, 16)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (nets=%v)", err, nets != nil)
	}
	if nets != nil {
		t.Fatal("cancelled ensemble must return nil networks")
	}
	// The uncancelled run would take many minutes; "promptly" here means
	// within one GA generation per in-flight replica.
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v, not prompt", elapsed)
	}
}

func TestGenerateContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GenerateContext(ctx, fastConfig(10, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := GenerateEnsembleContext(ctx, fastConfig(10, 1), 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestGenerateContextCancelsHeuristics: the initialised GA's heuristic
// seeding sees the context. At n=80 the heuristics alone run for tens of
// seconds, so a 100 ms deadline must end generation well before they would
// finish.
func TestGenerateContextCancelsHeuristics(t *testing.T) {
	cfg := Config{
		NumPoPs:     80,
		Seed:        1,
		Parallelism: 1,
		Optimizer:   OptimizerSpec{PopulationSize: 10, Generations: 2, SeedWithHeuristics: true},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	nw, err := GenerateContext(ctx, cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v (network=%v)", err, nw != nil)
	}
	if elapsed > time.Second {
		t.Fatalf("generation returned %v after its start, want within 1s", elapsed)
	}
}

func TestGenerateContextMatchesGenerate(t *testing.T) {
	a, err := Generate(fastConfig(10, 11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateContext(context.Background(), fastConfig(10, 11))
	if err != nil {
		t.Fatal(err)
	}
	networksEqual(t, a, b)
}

func TestGenerateVariantsContextMatchesVariants(t *testing.T) {
	a, err := GenerateVariants(fastConfig(10, 4), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateVariantsContext(context.Background(), fastConfig(10, 4), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("variant counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		networksEqual(t, a[i], b[i])
	}
}

func TestEnsembleEmptyAndNegative(t *testing.T) {
	nets, err := GenerateEnsemble(fastConfig(8, 1), 0)
	if err != nil || len(nets) != 0 {
		t.Fatalf("count 0: nets=%v err=%v", nets, err)
	}
	if _, err := GenerateEnsemble(fastConfig(8, 1), -1); err == nil {
		t.Fatal("negative count must error")
	}
}

// TestEnsembleInvalidConfigError: an invalid config fails with
// ErrInvalidConfig before the run starts, so the trace stays empty.
func TestEnsembleInvalidConfigError(t *testing.T) {
	var trace bytes.Buffer
	cfg := fastConfig(0, 1) // NumPoPs 0 is invalid
	cfg.Parallelism = 4
	cfg.Telemetry = NewTelemetry().TraceTo(&trace)
	if _, err := GenerateEnsemble(cfg, 6); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("invalid config: err = %v, want ErrInvalidConfig", err)
	}
	if trace.Len() != 0 {
		t.Fatalf("invalid config traced events:\n%s", trace.String())
	}
}

// TestEnsembleMemberErrorNamesLowestMember: when every member fails, the
// engine reports member 0 — the lowest-index failure, whichever worker
// finished first — wrapped so errors.Is still finds ErrInvalidConfig, and
// emits nothing, at every parallelism.
func TestEnsembleMemberErrorNamesLowestMember(t *testing.T) {
	var cfg Config
	if err := json.Unmarshal([]byte(overflowRepros[0]), &cfg); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		cfg.Parallelism = par
		err := GenerateEnsembleStream(context.Background(), cfg, 6, func(i int, _ *Network) error {
			t.Errorf("parallelism %d: member %d emitted", par, i)
			return nil
		})
		if !errors.Is(err, ErrInvalidConfig) || !strings.HasPrefix(fmt.Sprint(err), "cold: ensemble member 0: ") {
			t.Errorf("parallelism %d: err = %v, want cold: ensemble member 0: … wrapping ErrInvalidConfig", par, err)
		}
	}
}
