package main

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	cold "github.com/networksynth/cold"
)

// recordTrace runs a small traced ensemble and returns the trace path.
func recordTrace(t *testing.T, runID string, count int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	tel := cold.NewTelemetry().TraceTo(bw)
	cfg := cold.Config{
		NumPoPs:     8,
		Seed:        5,
		Parallelism: 2,
		RunID:       runID,
		Telemetry:   tel,
		Optimizer:   cold.OptimizerSpec{PopulationSize: 8, Generations: 6},
	}
	if _, err := cold.GenerateEnsemble(cfg, count); err != nil {
		t.Fatal(err)
	}
	if err := tel.TraceErr(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceSubcommand runs `coldstats trace` over a real recorded trace
// and checks the report: run header with the correlation ID, wall/busy
// rollup, convergence table and the per-replica phase breakdown.
func TestTraceSubcommand(t *testing.T) {
	path := recordTrace(t, "req-7f3a", 3)
	var out bytes.Buffer
	if err := run([]string{"trace", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"1 runs",
		"run 1 run_id=req-7f3a: replicas=3 workers=2 n=8 pop=8 gens=6",
		"utilization",
		"evaluator:",
		"cache hit",
		"convergence (mean over 3 replicas):",
		"gen        best",
		"replicas:",
		"rep  worker",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q in:\n%s", want, got)
		}
	}
	// All three replica rows must be present.
	for _, rep := range []string{"\n      0  ", "\n      1  ", "\n      2  "} {
		if !strings.Contains(got, rep) {
			t.Errorf("report missing replica row %q", strings.TrimSpace(rep))
		}
	}
}

// TestParseTrace covers the parser's edge cases with handwritten JSONL:
// v1 events (no run_id, counters on run_end, phase events), v4 events
// (counters on replica_end, bare run_end), multiple runs per file,
// headless tails, and the error paths.
func TestParseTrace(t *testing.T) {
	v1 := `{"v":1,"event":"run_start","replicas":1,"workers":1,"n":5,"pop":4,"gens":2}
{"v":1,"event":"replica_start","replica":0,"worker":0,"queue_ns":10}
{"v":1,"event":"generation","replica":0,"gen":0,"best":9.5,"mean":11,"worst":12,"diversity":2,"elite_survived":0,"breed_ns":5,"eval_ns":6,"evals":4}
{"v":1,"event":"generation","replica":0,"gen":1,"best":8.5,"mean":9,"worst":10,"diversity":1,"elite_survived":2,"breed_ns":5,"eval_ns":6,"evals":8}
{"v":1,"event":"phase","replica":0,"phase":"breed","total_ns":10,"count":2}
{"v":1,"event":"phase","replica":0,"phase":"evaluate","total_ns":12,"count":2}
{"v":1,"event":"replica_end","replica":0,"worker":0,"dur_ns":100,"cost":8.5,"links":4}
{"v":1,"event":"run_end","replicas":1,"workers":1,"dur_ns":120,"busy_ns":100,"utilization":0.83,"cache_hits":3,"cache_misses":5,"full_sweeps":5}
`
	t.Run("v1", func(t *testing.T) {
		runs, lines, err := parseTrace(strings.NewReader(v1))
		if err != nil {
			t.Fatal(err)
		}
		if lines != 8 || len(runs) != 1 {
			t.Fatalf("lines=%d runs=%d, want 8 and 1", lines, len(runs))
		}
		tr := runs[0]
		if tr.start == nil || tr.end == nil || tr.start.RunID != "" {
			t.Fatalf("v1 run parsed wrong: start=%+v end=%+v", tr.start, tr.end)
		}
		r := tr.replicas[0]
		if r == nil || r.breedNs != 10 || r.evalNs != 12 || r.cost != 8.5 || !r.ended {
			t.Fatalf("replica rollup = %+v", r)
		}
		if tr.maxGen != 1 || tr.gens[1].best != 8.5 || tr.gens[1].elite != 2 {
			t.Fatalf("generation aggregate wrong: maxGen=%d gens=%+v", tr.maxGen, tr.gens[1])
		}
		if tr.busyNs != 100 || tr.hits != 3 || tr.misses != 5 || tr.sweeps != 5 {
			t.Fatalf("run rollup: busy %d, counters %d/%d/%d, want 100 and 3/5/5", tr.busyNs, tr.hits, tr.misses, tr.sweeps)
		}
	})

	t.Run("v4", func(t *testing.T) {
		v4 := `{"v":4,"event":"run_start","replicas":2,"workers":1,"n":5,"pop":4,"gens":1}
{"v":4,"event":"generation","replica":0,"gen":0,"best":9.5,"mean":11,"breed_ns":5,"eval_ns":6,"evals":4}
{"v":4,"event":"replica_end","replica":0,"worker":0,"dur_ns":100,"cost":9.5,"links":4,"cache_hits":1,"cache_misses":4,"full_sweeps":4}
{"v":4,"event":"generation","replica":1,"gen":0,"best":8.5,"mean":10,"breed_ns":7,"eval_ns":8,"evals":4}
{"v":4,"event":"replica_end","replica":1,"worker":0,"dur_ns":60,"cost":8.5,"links":4,"cache_hits":2,"cache_misses":3,"full_sweeps":3}
{"v":4,"event":"run_end","replicas":2,"workers":1,"dur_ns":200}
`
		runs, _, err := parseTrace(strings.NewReader(v4))
		if err != nil {
			t.Fatal(err)
		}
		tr := runs[0]
		if tr.busyNs != 160 || tr.hits != 3 || tr.misses != 7 || tr.sweeps != 7 {
			t.Fatalf("run rollup: busy %d, counters %d/%d/%d, want 160 and 3/7/7", tr.busyNs, tr.hits, tr.misses, tr.sweeps)
		}
		if r := tr.replicas[1]; r.breedNs != 7 || r.evalNs != 8 {
			t.Fatalf("replica 1 phases: breed %d eval %d, want 7 and 8", r.breedNs, r.evalNs)
		}
		var out bytes.Buffer
		printRun(&out, 0, tr, 0)
		for _, want := range []string{"busy 160ns, utilization 0.80", "evaluator: 10 cost lookups — cache hit 30.0%, 7 full sweeps"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("report missing %q:\n%s", want, out.String())
			}
		}

		// Without run_end (a canceled run) the run is flagged and the
		// replica counters are still reported.
		runs, _, err = parseTrace(strings.NewReader(v4[:strings.Index(v4, `{"v":4,"event":"run_end"`)]))
		if err != nil {
			t.Fatal(err)
		}
		out.Reset()
		printRun(&out, 0, runs[0], 0)
		for _, want := range []string{"missing run_end", "evaluator: 10 cost lookups"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("report without run_end missing %q:\n%s", want, out.String())
			}
		}
	})

	t.Run("two runs", func(t *testing.T) {
		runs, _, err := parseTrace(strings.NewReader(v1 + v1))
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 2 {
			t.Fatalf("%d runs, want 2", len(runs))
		}
	})

	t.Run("headless tail", func(t *testing.T) {
		// A trace whose head was lost: events before any run_start still
		// group into an implicit run instead of being dropped.
		tail := `{"v":2,"event":"replica_end","replica":3,"worker":1,"dur_ns":50,"cost":4,"links":3}
`
		runs, _, err := parseTrace(strings.NewReader(tail))
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 1 || runs[0].start != nil || runs[0].replicas[3] == nil {
			t.Fatalf("headless parse = %+v", runs)
		}
		var out bytes.Buffer
		printRun(&out, 0, runs[0], 0)
		if !strings.Contains(out.String(), "missing run_start") {
			t.Errorf("report must flag the missing run_start:\n%s", out.String())
		}
	})

	t.Run("future schema", func(t *testing.T) {
		_, _, err := parseTrace(strings.NewReader(`{"v":99,"event":"run_start"}`))
		if err == nil || !strings.Contains(err.Error(), "unsupported trace schema") {
			t.Fatalf("err = %v, want unsupported schema", err)
		}
	})

	t.Run("malformed line", func(t *testing.T) {
		if _, _, err := parseTrace(strings.NewReader("{not json}\n")); err == nil {
			t.Fatal("malformed line must error")
		}
	})
}

// TestTraceSchemaVersions pins the reader's schema window: v2 (before the
// v3 bump dropped run_end's incremental-evaluation counters), v3 (before
// the v4 bump moved the evaluator counters to replica_end and dropped the
// phase event and run_end's rollups), a live v4 recording, and v5
// rejected.
func TestTraceSchemaVersions(t *testing.T) {
	noDeltaRollup := func(t *testing.T, report string) {
		t.Helper()
		for _, gone := range []string{"delta", "routing bases", "fallbacks"} {
			if strings.Contains(report, gone) {
				t.Errorf("report mentions %q:\n%s", gone, report)
			}
		}
	}

	t.Run("v2 with delta counters", func(t *testing.T) {
		// Recorded at n=64 by a release that still had the incremental
		// path: its run_end carries delta_evals, fallbacks, base_* and
		// base_distance.
		path := filepath.Join("testdata", "trace_v2.jsonl")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(`"v":2,"event":"run_end"`)) || !bytes.Contains(data, []byte(`"base_distance"`)) {
			t.Fatalf("%s is not a v2 trace with delta counters", path)
		}
		runs, _, err := parseTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 1 || runs[0].end == nil || runs[0].sweeps != 252 || runs[0].hits != 76 {
			t.Fatalf("v2 run_end parsed wrong: %+v", runs)
		}
		var out bytes.Buffer
		if err := run([]string{"trace", path}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "cache hit 23.8%, 252 full sweeps") {
			t.Errorf("v2 evaluator rollup missing:\n%s", out.String())
		}
		noDeltaRollup(t, out.String())
	})

	t.Run("v3", func(t *testing.T) {
		// Recorded by coldgen at schema v3: phase events, and run_end
		// carries busy_ns, utilization and the evaluator totals.
		path := filepath.Join("testdata", "trace_v3.jsonl")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(`{"v":3,"event":"run_end"`)) || !bytes.Contains(data, []byte(`"event":"phase"`)) {
			t.Fatalf("%s is not a v3 trace with phase events", path)
		}
		var out bytes.Buffer
		if err := run([]string{"trace", path}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "cache hit 65.8%, 727 full sweeps") {
			t.Errorf("v3 evaluator rollup missing:\n%s", out.String())
		}
		noDeltaRollup(t, out.String())
	})

	t.Run("v4", func(t *testing.T) {
		path := recordTrace(t, "", 2)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(`{"v":4,"event":"run_end"`)) || bytes.Contains(data, []byte(`"full_sweeps":0}`)) ||
			bytes.Contains(data, []byte(`"event":"phase"`)) {
			t.Fatalf("recorded trace is not schema v4 with replica counters and no phase events:\n%s", data)
		}
		var out bytes.Buffer
		if err := run([]string{"trace", path}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "full sweeps") {
			t.Errorf("v4 evaluator rollup missing:\n%s", out.String())
		}
		noDeltaRollup(t, out.String())
	})

	t.Run("v5 rejected", func(t *testing.T) {
		_, _, err := parseTrace(strings.NewReader(`{"v":5,"event":"run_start"}`))
		if err == nil || !strings.Contains(err.Error(), "unsupported trace schema v5") {
			t.Fatalf("err = %v, want unsupported schema v5", err)
		}
	})
}

// TestTraceReportGolden pins the report of each checked-in trace byte for
// byte. trace_v2 and trace_v3 were recorded at older schemas, and their
// goldens were produced by the recording release's coldstats: a reader
// that computes its rollups from the facts prints what that release
// printed from the rollup events. trace_v4_single is one cold.Generate's
// trace, replica 0 with no run events: a whole single network, reported
// as such rather than as a truncated run.
func TestTraceReportGolden(t *testing.T) {
	for _, name := range []string{"trace_v2", "trace_v3", "trace_v4_single"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".report"))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run([]string{"trace", filepath.Join("testdata", name+".jsonl")}, &out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("report differs from testdata/%s.report:\n%s", name, out.String())
			}
		})
	}
}

// TestTraceUsageErrors: the subcommand rejects missing files and no args.
func TestTraceUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"trace"}, &out); err == nil {
		t.Fatal("no-arg trace must error with usage")
	}
	if err := run([]string{"trace", filepath.Join(t.TempDir(), "absent.jsonl")}, &out); err == nil {
		t.Fatal("missing file must error")
	}
}

// hugeGenTrace is a well-formed trace whose final generation number is
// MaxInt64: the report must walk the generations present, not count up to
// the largest one.
const hugeGenTrace = `{"v":3,"event":"run_start","replicas":1,"workers":1,"n":5,"pop":4,"gens":2}
{"v":3,"event":"generation","replica":0,"gen":0,"best":10,"mean":10}
{"v":3,"event":"generation","replica":0,"gen":9223372036854775807,"best":1,"mean":1}
`

// within runs fn and fails the test if it has not returned after d.
func within(t testing.TB, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("did not return within %v", d)
	}
}

func TestTraceHugeGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.jsonl")
	if err := os.WriteFile(path, []byte(hugeGenTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	var err error
	within(t, 5*time.Second, func() { err = run([]string{"trace", path}, &out) })
	if err != nil {
		t.Fatal(err)
	}
	if want := "90% of the improvement by gen 9223372036854775807"; !strings.Contains(out.String(), want) {
		t.Errorf("report missing %q:\n%s", want, out.String())
	}
}

// FuzzTrace feeds arbitrary bytes to the trace parser and renders every
// parsed run: neither step may panic or hang.
//
// Run a real session with:
//
//	go test ./cmd/coldstats -run '^$' -fuzz FuzzTrace -fuzztime 1m
func FuzzTrace(f *testing.F) {
	f.Add([]byte(hugeGenTrace))
	f.Add([]byte(`{"v":1,"event":"run_start","replicas":1,"workers":1,"n":5,"pop":4,"gens":2}
{"v":1,"event":"replica_start","replica":0,"worker":0,"queue_ns":10}
{"v":1,"event":"generation","replica":0,"gen":0,"best":9.5,"mean":11,"diversity":2,"evals":4}
{"v":1,"event":"generation","replica":0,"gen":1,"best":8.5,"mean":9,"diversity":1,"elite_survived":2,"evals":8}
{"v":1,"event":"phase","replica":0,"phase":"breed","total_ns":10,"count":2}
{"v":1,"event":"replica_end","replica":0,"worker":0,"dur_ns":100,"cost":8.5,"links":4}
{"v":1,"event":"run_end","replicas":1,"workers":1,"dur_ns":120,"busy_ns":100,"utilization":0.83,"cache_hits":3,"cache_misses":5,"full_sweeps":5}
`))
	f.Add([]byte(`{"v":4,"event":"run_start","replicas":1,"workers":1,"n":5,"pop":4,"gens":1}
{"v":4,"event":"replica_start","replica":0,"worker":0,"queue_ns":10}
{"v":4,"event":"generation","replica":0,"gen":0,"best":9.5,"mean":11,"diversity":2,"breed_ns":5,"eval_ns":6,"evals":4}
{"v":4,"event":"replica_end","replica":0,"worker":0,"dur_ns":100,"cost":9.5,"links":4,"cache_hits":1,"cache_misses":4,"full_sweeps":4}
{"v":4,"event":"run_end","replicas":1,"workers":1,"dur_ns":120}
`))
	f.Add([]byte(`{"v":2,"event":"generation","replica":-3,"gen":-1,"best":4}` + "\n"))
	single, err := os.ReadFile(filepath.Join("testdata", "trace_v4_single.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(single)
	f.Fuzz(func(t *testing.T, data []byte) {
		within(t, 5*time.Second, func() {
			runs, _, err := parseTrace(bytes.NewReader(data))
			if err != nil {
				return
			}
			for i, tr := range runs {
				printRun(io.Discard, i, tr, 16)
			}
		})
	})
}
