package cold

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/networksynth/cold/internal/telemetry"
)

// exportBytes marshals a network to its canonical JSON export.
func exportBytes(t *testing.T, nw *Network) []byte {
	t.Helper()
	b, err := json.Marshal(nw)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTelemetryDoesNotChangeResults is the determinism contract for the
// whole public surface: with a live telemetry (including a JSONL trace
// sink), Generate and GenerateEnsemble must produce byte-identical
// networks, at every parallelism.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	base, err := Generate(fastConfig(12, 9))
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	cfg := fastConfig(12, 9)
	cfg.Telemetry = NewTelemetry().TraceTo(&trace)
	traced, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := exportBytes(t, base), exportBytes(t, traced)
	if !bytes.Equal(a, b) {
		t.Fatalf("telemetry changed the generated network:\n%s\nvs\n%s", a, b)
	}
	if trace.Len() == 0 {
		t.Fatal("trace sink got no events")
	}

	const count = 4
	for _, par := range []int{1, 4} {
		plain := fastConfig(10, 5)
		plain.Parallelism = par
		want, err := GenerateEnsemble(plain, count)
		if err != nil {
			t.Fatal(err)
		}
		observed := fastConfig(10, 5)
		observed.Parallelism = par
		observed.Telemetry = NewTelemetry().TraceTo(&bytes.Buffer{})
		got, err := GenerateEnsemble(observed, count)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !bytes.Equal(exportBytes(t, want[i]), exportBytes(t, got[i])) {
				t.Fatalf("parallelism %d: ensemble member %d differs under telemetry", par, i)
			}
		}
	}
}

// TestTelemetryTraceSchema checks the JSONL event stream of an ensemble
// run: versioned lines, the documented event vocabulary, and the expected
// event counts and ordering.
func TestTelemetryTraceSchema(t *testing.T) {
	const count = 3
	var trace bytes.Buffer
	tel := NewTelemetry().TraceTo(&trace)
	cfg := fastConfig(9, 2)
	cfg.Parallelism = 2
	cfg.Telemetry = tel
	if _, err := GenerateEnsemble(cfg, count); err != nil {
		t.Fatal(err)
	}
	if err := tel.TraceErr(); err != nil {
		t.Fatal(err)
	}

	type event struct {
		V     int    `json:"v"`
		Event string `json:"event"`
	}
	counts := map[string]int{}
	var order []string
	sc := bufio.NewScanner(&trace)
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("invalid trace line %q: %v", sc.Text(), err)
		}
		if e.V != TraceSchemaVersion {
			t.Fatalf("event %q has v=%d, want %d", e.Event, e.V, TraceSchemaVersion)
		}
		counts[e.Event]++
		order = append(order, e.Event)
	}
	if order[0] != "run_start" || order[len(order)-1] != "run_end" {
		t.Fatalf("trace must be bracketed by run_start..run_end, got %s..%s", order[0], order[len(order)-1])
	}
	if counts["run_start"] != 1 || counts["run_end"] != 1 {
		t.Fatalf("run events: %d start, %d end, want 1 each", counts["run_start"], counts["run_end"])
	}
	if counts["replica_start"] != count || counts["replica_end"] != count {
		t.Fatalf("replica events: %d start, %d end, want %d each", counts["replica_start"], counts["replica_end"], count)
	}
	wantGens := count * 25 // fastConfig runs 25 generations
	if counts["generation"] != wantGens {
		t.Fatalf("%d generation events, want %d", counts["generation"], wantGens)
	}
	if counts["phase"] != 2*count {
		t.Fatalf("%d phase events, want %d (breed+evaluate per replica)", counts["phase"], 2*count)
	}
	for name := range counts {
		switch name {
		case "run_start", "run_end", "replica_start", "replica_end", "generation", "phase":
		default:
			t.Fatalf("undocumented event %q in trace", name)
		}
	}
}

// TestTelemetrySnapshot checks the aggregated counters after runs.
func TestTelemetrySnapshot(t *testing.T) {
	var nilTel *Telemetry
	if s := nilTel.Snapshot(); s != (TelemetrySnapshot{}) {
		t.Fatalf("nil telemetry snapshot = %+v", s)
	}

	tel := NewTelemetry()
	const count = 3
	cfg := fastConfig(9, 4)
	cfg.Parallelism = 2
	cfg.Telemetry = tel
	if _, err := GenerateEnsemble(cfg, count); err != nil {
		t.Fatal(err)
	}
	s := tel.Snapshot()
	if s.Runs != 1 {
		t.Fatalf("runs = %d, want 1", s.Runs)
	}
	if s.ReplicasStarted != count || s.ReplicasDone != count {
		t.Fatalf("replicas started %d done %d, want %d", s.ReplicasStarted, s.ReplicasDone, count)
	}
	if s.ActiveReplicas != 0 {
		t.Fatalf("active replicas %d after run", s.ActiveReplicas)
	}
	if s.Generations != count*25 {
		t.Fatalf("generations = %d, want %d", s.Generations, count*25)
	}
	if s.Evaluations == 0 || s.Eval.CacheMisses == 0 || s.Eval.FullSweeps == 0 {
		t.Fatalf("evaluator counters empty: %+v", s)
	}
	if h := tel.evalDur.Snapshot(); h.Count == 0 || h.Sum <= 0 {
		t.Fatalf("duration histogram empty: %+v", h)
	}
	if s.BusyNs <= 0 {
		t.Fatalf("busy ns = %d", s.BusyNs)
	}

	// A second run on the same Telemetry accumulates.
	if _, err := Generate(cfg); err != nil {
		t.Fatal(err)
	}
	s2 := tel.Snapshot()
	if s2.ReplicasDone != count+1 {
		t.Fatalf("replicas done = %d after single run, want %d", s2.ReplicasDone, count+1)
	}
	if s2.Runs != 1 {
		t.Fatalf("single-network Generate must not count as a run, got %d", s2.Runs)
	}
}

// TestNetworkEvalStats checks the per-network evaluator counter snapshot.
func TestNetworkEvalStats(t *testing.T) {
	nw, err := Generate(fastConfig(12, 6))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Eval.CacheMisses == 0 || nw.Eval.FullSweeps == 0 {
		t.Fatalf("network eval stats empty: %+v", nw.Eval)
	}
	if nw.Eval.Kernel != "heap" && nw.Eval.Kernel != "linear" {
		t.Fatalf("kernel %q", nw.Eval.Kernel)
	}
	total := nw.Eval.CacheHits + nw.Eval.CacheMisses
	if total == 0 {
		t.Fatal("no cache lookups recorded")
	}
	// The export schema deliberately excludes counters (they are not
	// deterministic); round-tripping must zero them, not fail.
	b := exportBytes(t, nw)
	var back Network
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Eval.CacheMisses != 0 {
		t.Fatal("Eval stats leaked into the JSON export schema")
	}
}

// TestEnsembleProgressOrdering pins the ProgressFunc contract: done is
// strictly increasing and reaches total exactly once, for every
// parallelism.
func TestEnsembleProgressOrdering(t *testing.T) {
	const count = 7
	for _, par := range []int{1, 2, 8} {
		cfg := fastConfig(8, 3)
		cfg.Parallelism = par
		var mu sync.Mutex
		var calls [][2]int
		cfg.Progress = func(done, total int) {
			mu.Lock()
			calls = append(calls, [2]int{done, total})
			mu.Unlock()
		}
		if _, err := GenerateEnsemble(cfg, count); err != nil {
			t.Fatal(err)
		}
		if len(calls) != count {
			t.Fatalf("parallelism %d: %d progress calls, want %d", par, len(calls), count)
		}
		for i, c := range calls {
			if c[0] != i+1 {
				t.Fatalf("parallelism %d: call %d reported done=%d, want strictly increasing %d", par, i, c[0], i+1)
			}
			if c[1] != count {
				t.Fatalf("parallelism %d: call %d reported total=%d, want %d", par, i, c[1], count)
			}
		}
		if calls[len(calls)-1][0] != count {
			t.Fatalf("parallelism %d: final done=%d never reached total", par, calls[len(calls)-1][0])
		}
	}
}

// TestEnsembleProgressStopsAfterCancel pins the other half of the
// contract: once GenerateEnsembleContext has returned (here: cancelled),
// Progress is never called again.
func TestEnsembleProgressStopsAfterCancel(t *testing.T) {
	cfg := fastConfig(14, 8)
	cfg.Parallelism = 2
	cfg.Optimizer.Generations = 200 // long enough to cancel mid-flight
	ctx, cancel := context.WithCancel(context.Background())

	var mu sync.Mutex
	returned := false
	late := false
	calls := 0
	cfg.Progress = func(done, total int) {
		mu.Lock()
		calls++
		if returned {
			late = true
		}
		if calls == 1 {
			cancel()
		}
		mu.Unlock()
	}
	_, err := GenerateEnsembleContext(ctx, cfg, 8)
	mu.Lock()
	returned = true
	mu.Unlock()
	if err == nil {
		t.Fatal("cancelled ensemble returned no error")
	}
	// Give any straggling worker goroutine a chance to misbehave.
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if late {
		t.Fatal("Progress called after GenerateEnsembleContext returned")
	}
}

// TestRunIDCorrelation pins the schema-v2 correlation field: Config.RunID
// is stamped into run_start and run_end (and nothing else), does not
// affect the canonical hash, and is omitted entirely when empty.
func TestRunIDCorrelation(t *testing.T) {
	var trace bytes.Buffer
	tel := NewTelemetry().TraceTo(&trace)
	cfg := fastConfig(9, 2)
	cfg.Telemetry = tel
	cfg.RunID = "job-0042"
	if _, err := GenerateEnsemble(cfg, 2); err != nil {
		t.Fatal(err)
	}

	type event struct {
		Event string  `json:"event"`
		RunID *string `json:"run_id"`
	}
	sc := bufio.NewScanner(bytes.NewReader(trace.Bytes()))
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		switch e.Event {
		case "run_start", "run_end":
			if e.RunID == nil || *e.RunID != "job-0042" {
				t.Fatalf("%s run_id = %v, want job-0042", e.Event, e.RunID)
			}
		default:
			if e.RunID != nil {
				t.Fatalf("%s must not carry run_id", e.Event)
			}
		}
	}

	// RunID is execution-only: same canonical hash with and without it.
	with, without := fastConfig(9, 2), fastConfig(9, 2)
	with.RunID = "job-0042"
	h1, err := with.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := without.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("RunID must not change the canonical config hash")
	}

	// And with no RunID, the field is omitted from the JSON entirely.
	var clean bytes.Buffer
	cfg2 := fastConfig(9, 2)
	cfg2.Telemetry = NewTelemetry().TraceTo(&clean)
	if _, err := GenerateEnsemble(cfg2, 1); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(clean.Bytes(), []byte("run_id")) {
		t.Fatal("empty RunID must be omitted from trace events")
	}
}

// TestWithTraceSharesInstruments: derived handles write separate traces
// but aggregate into the same counters — the coldd pattern of one metric
// surface with a trace file per job.
func TestWithTraceSharesInstruments(t *testing.T) {
	tel := NewTelemetry()
	var traceA, traceB bytes.Buffer

	cfgA := fastConfig(9, 2)
	cfgA.Telemetry = tel.WithTrace(&traceA)
	cfgA.RunID = "a"
	if _, err := GenerateEnsemble(cfgA, 2); err != nil {
		t.Fatal(err)
	}
	cfgB := fastConfig(9, 3)
	cfgB.Telemetry = tel.WithTrace(&traceB)
	cfgB.RunID = "b"
	if _, err := GenerateEnsemble(cfgB, 1); err != nil {
		t.Fatal(err)
	}

	if s := tel.Snapshot(); s.Runs != 2 || s.ReplicasDone != 3 {
		t.Fatalf("shared instruments saw runs=%d replicas=%d, want 2 and 3", s.Runs, s.ReplicasDone)
	}
	for name, buf := range map[string]*bytes.Buffer{"a": &traceA, "b": &traceB} {
		if !bytes.Contains(buf.Bytes(), []byte(`"run_id":"`+name+`"`)) {
			t.Fatalf("trace %s missing its own run_id", name)
		}
		other := "b"
		if name == "b" {
			other = "a"
		}
		if bytes.Contains(buf.Bytes(), []byte(`"run_id":"`+other+`"`)) {
			t.Fatalf("trace %s contains events of run %s", name, other)
		}
	}
	if tel.rec != nil {
		t.Fatal("WithTrace must not attach a sink to the parent handle")
	}
}

// TestRegisterMetricsExposition: the engine's registered metric surface
// renders to lintable exposition text with the documented families.
func TestRegisterMetricsExposition(t *testing.T) {
	tel := NewTelemetry()
	cfg := fastConfig(9, 2)
	cfg.Telemetry = tel
	if _, err := GenerateEnsemble(cfg, 2); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tel.RegisterMetrics(reg)
	var out bytes.Buffer
	if err := reg.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.LintExposition(out.Bytes()); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"cold_runs_total 1",
		"cold_replicas_done_total 2",
		"cold_active_replicas 0",
		"cold_eval_duration_seconds_bucket{le=",
		"cold_eval_cache_misses_total",
		"cold_replica_busy_seconds_total",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
