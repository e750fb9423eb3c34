package cold

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"strconv"
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
// run: versioned lines, the documented event vocabulary, the expected
// event counts and ordering, and a run_end that holds only its own facts.
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

	counts := map[string]int{}
	var order []string
	sc := bufio.NewScanner(&trace)
	for sc.Scan() {
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("invalid trace line %q: %v", sc.Text(), err)
		}
		name, _ := e["event"].(string)
		if e["v"] != float64(TraceSchemaVersion) {
			t.Fatalf("event %q has v=%v, want %d", name, e["v"], TraceSchemaVersion)
		}
		if name == "run_end" {
			// Busy time, utilization and evaluator totals are sums over
			// replica_end; run_end repeats none of them.
			for field := range e {
				switch field {
				case "v", "event", "run_id", "replicas", "workers", "dur_ns":
				default:
					t.Errorf("run_end carries %q", field)
				}
			}
		}
		counts[name]++
		order = append(order, name)
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
	for name := range counts {
		switch name {
		case "run_start", "run_end", "replica_start", "replica_end", "generation":
		default:
			t.Fatalf("undocumented event %q in trace", name)
		}
	}
}

// TestReplicaQueueWaitFromRunStart pins what replica_start.queue_ns
// measures: every replica of a run is eligible from the run's start, so at
// Parallelism 1 each replica's wait covers its predecessor's wait and run.
func TestReplicaQueueWaitFromRunStart(t *testing.T) {
	const count = 4
	var trace bytes.Buffer
	cfg := fastConfig(9, 3)
	cfg.Parallelism = 1
	cfg.Telemetry = NewTelemetry().TraceTo(&trace)
	if _, err := GenerateEnsemble(cfg, count); err != nil {
		t.Fatal(err)
	}
	var queue, dur []int64
	sc := bufio.NewScanner(&trace)
	for sc.Scan() {
		var e struct {
			Event   string `json:"event"`
			QueueNs int64  `json:"queue_ns"`
			DurNs   int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		switch e.Event {
		case "replica_start":
			queue = append(queue, e.QueueNs)
		case "replica_end":
			dur = append(dur, e.DurNs)
		}
	}
	if len(queue) != count || len(dur) != count {
		t.Fatalf("%d replica_start and %d replica_end events, want %d each", len(queue), len(dur), count)
	}
	for i := 1; i < count; i++ {
		if queue[i] < queue[i-1]+dur[i-1] {
			t.Errorf("replica %d: queue_ns %d < replica %d's queue_ns %d + dur_ns %d", i, queue[i], i-1, queue[i-1], dur[i-1])
		}
	}
}

// scrape renders tel's RegisterMetrics output and returns every unlabeled
// series by name: the counters as an operator reads them from /metrics.
func scrape(t *testing.T, tel *Telemetry) map[string]float64 {
	t.Helper()
	reg := telemetry.NewRegistry()
	tel.RegisterMetrics(reg)
	var out bytes.Buffer
	if err := reg.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	series := make(map[string]float64)
	for _, line := range strings.Split(out.String(), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		series[name] = v
	}
	return series
}

// replicaEndCounters sums the evaluator counters of a trace's replica_end
// events, keyed by the /metrics family that aggregates each one, and
// returns how many replica_end events it read.
func replicaEndCounters(t *testing.T, trace []byte) (map[string]float64, int) {
	t.Helper()
	sums := map[string]float64{}
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(trace))
	for sc.Scan() {
		if !bytes.Contains(sc.Bytes(), []byte(`"event":"replica_end"`)) {
			continue
		}
		var end telemetry.ReplicaEnd
		if err := json.Unmarshal(sc.Bytes(), &end); err != nil {
			t.Fatal(err)
		}
		n++
		sums["cold_eval_cache_hits_total"] += float64(end.CacheHits)
		sums["cold_eval_cache_misses_total"] += float64(end.CacheMisses)
		sums["cold_eval_full_sweeps_total"] += float64(end.FullSweeps)
	}
	return sums, n
}

// TestTelemetryCounters checks the aggregated counters after runs, read
// through the registry that backs /metrics, and that the evaluator
// counters the trace's replica_end events carry sum to the same totals,
// for an ensemble and for a single Generate.
func TestTelemetryCounters(t *testing.T) {
	var trace bytes.Buffer
	tel := NewTelemetry().TraceTo(&trace)
	const count = 3
	cfg := fastConfig(9, 4)
	cfg.Parallelism = 2
	cfg.Telemetry = tel
	if _, err := GenerateEnsemble(cfg, count); err != nil {
		t.Fatal(err)
	}
	s := scrape(t, tel)
	for name, want := range map[string]float64{
		"cold_runs_total":             1,
		"cold_replicas_started_total": count,
		"cold_replicas_done_total":    count,
		"cold_active_replicas":        0,
		"cold_ga_generations_total":   count * 25,
	} {
		if got, ok := s[name]; !ok || got != want {
			t.Fatalf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	for _, name := range []string{
		"cold_evaluations_total",
		"cold_eval_cache_misses_total",
		"cold_eval_full_sweeps_total",
		"cold_eval_duration_seconds_count",
		"cold_eval_duration_seconds_sum",
		"cold_replica_busy_seconds_total",
	} {
		if s[name] <= 0 {
			t.Fatalf("%s = %v, want > 0", name, s[name])
		}
	}
	sameCounters := func(s map[string]float64, trace []byte, wantEnds int) {
		t.Helper()
		sums, ends := replicaEndCounters(t, trace)
		if ends != wantEnds {
			t.Fatalf("trace has %d replica_end events, want %d", ends, wantEnds)
		}
		for name, got := range sums {
			if want, ok := s[name]; !ok || got != want {
				t.Fatalf("replica_end events sum to %v for %s, /metrics reads %v (present %v)", got, name, want, ok)
			}
		}
	}
	sameCounters(s, trace.Bytes(), count)

	// A second run on the same Telemetry accumulates, and a single
	// Generate's trace carries its counters on replica_end too.
	if _, err := Generate(cfg); err != nil {
		t.Fatal(err)
	}
	s2 := scrape(t, tel)
	sameCounters(s2, trace.Bytes(), count+1)
	if s2["cold_replicas_done_total"] != count+1 {
		t.Fatalf("replicas done = %v after single run, want %d", s2["cold_replicas_done_total"], count+1)
	}
	if s2["cold_runs_total"] != 1 {
		t.Fatalf("single-network Generate must not count as a run, got %v", s2["cold_runs_total"])
	}
	if s2["cold_eval_cache_misses_total"] <= s["cold_eval_cache_misses_total"] {
		t.Fatalf("cache misses did not accumulate: %v then %v",
			s["cold_eval_cache_misses_total"], s2["cold_eval_cache_misses_total"])
	}
}

// TestGenerateVariantsTelemetry: GenerateVariants is one GA run, so it
// records the same replica-0 scope as Generate of the same config: the
// same event vocabulary, generation count and evaluations, counters on
// replica_end, and no run. Observing it leaves the variants unchanged.
func TestGenerateVariantsTelemetry(t *testing.T) {
	plain, err := GenerateVariants(fastConfig(10, 6), 3)
	if err != nil {
		t.Fatal(err)
	}
	var observed []*Network
	record := func(gen func(Config) error) (map[string]float64, []byte) {
		t.Helper()
		var trace bytes.Buffer
		tel := NewTelemetry().TraceTo(&trace)
		cfg := fastConfig(10, 6)
		cfg.Telemetry = tel
		if err := gen(cfg); err != nil {
			t.Fatal(err)
		}
		if err := tel.TraceErr(); err != nil {
			t.Fatal(err)
		}
		return scrape(t, tel), trace.Bytes()
	}
	single, singleTrace := record(func(cfg Config) error { _, err := Generate(cfg); return err })
	vars, varsTrace := record(func(cfg Config) (err error) { observed, err = GenerateVariants(cfg, 3); return err })
	if len(observed) != len(plain) {
		t.Fatalf("%d variants under telemetry, %d without", len(observed), len(plain))
	}
	for i := range plain {
		if !bytes.Equal(exportBytes(t, plain[i]), exportBytes(t, observed[i])) {
			t.Fatalf("variant %d differs under telemetry", i)
		}
	}

	for _, name := range []string{"cold_evaluations_total", "cold_ga_generations_total", "cold_replicas_done_total"} {
		if vars[name] == 0 || vars[name] != single[name] {
			t.Errorf("%s: GenerateVariants %v, Generate %v", name, vars[name], single[name])
		}
	}
	if vars["cold_runs_total"] != 0 {
		t.Errorf("GenerateVariants counted %v runs, want 0", vars["cold_runs_total"])
	}
	events := func(trace []byte) map[string]int {
		counts := map[string]int{}
		sc := bufio.NewScanner(bytes.NewReader(trace))
		for sc.Scan() {
			var e struct {
				Event string `json:"event"`
			}
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatal(err)
			}
			counts[e.Event]++
		}
		return counts
	}
	if got, want := events(varsTrace), events(singleTrace); len(got) == 0 || !maps.Equal(got, want) {
		t.Errorf("GenerateVariants trace events %v, Generate's %v", got, want)
	}
	sums, ends := replicaEndCounters(t, varsTrace)
	if ends != 1 || sums["cold_eval_cache_misses_total"] == 0 {
		t.Fatalf("GenerateVariants trace: %d replica_end events with counters %v", ends, sums)
	}
	for name, got := range sums {
		if got != vars[name] {
			t.Errorf("replica_end carries %v for %s, /metrics reads %v", got, name, vars[name])
		}
	}
}

// TestEnsembleEmitStopsAfterCancel pins the end of GenerateEnsembleStream's
// emit contract: once a cancelled run has returned, emit is never called
// again.
func TestEnsembleEmitStopsAfterCancel(t *testing.T) {
	cfg := fastConfig(14, 8)
	cfg.Parallelism = 2
	cfg.Optimizer.Generations = 200 // long enough to cancel mid-flight
	ctx, cancel := context.WithCancel(context.Background())

	var mu sync.Mutex
	returned := false
	late := false
	calls := 0
	err := GenerateEnsembleStream(ctx, cfg, 8, func(i int, nw *Network) error {
		mu.Lock()
		calls++
		if returned {
			late = true
		}
		if calls == 1 {
			cancel()
		}
		mu.Unlock()
		return nil
	})
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
		t.Fatal("emit called after GenerateEnsembleStream returned")
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

	if s := scrape(t, tel); s["cold_runs_total"] != 2 || s["cold_replicas_done_total"] != 3 {
		t.Fatalf("shared instruments saw runs=%v replicas=%v, want 2 and 3",
			s["cold_runs_total"], s["cold_replicas_done_total"])
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
