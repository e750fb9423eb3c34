package cold

import (
	"io"

	"github.com/networksynth/cold/internal/core"
	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/telemetry"
)

// TraceSchemaVersion is the JSONL trace schema version stamped into every
// event line as "v". The schema is documented in DESIGN.md ("Observability").
const TraceSchemaVersion = telemetry.SchemaVersion

// Telemetry collects metrics and (optionally) a JSONL event trace from every
// run of a Config that points at it. The zero value is not usable; create
// with NewTelemetry. A nil *Telemetry disables all collection — the hot
// paths then pay a single nil check.
//
// One Telemetry may be shared by concurrent runs; instruments are atomic,
// and RegisterMetrics reads them at scrape time. Attaching telemetry never changes
// generated networks: instruments observe the clock and already-computed
// state, never the random streams (TestTelemetryDoesNotChangeResults
// enforces this bit-for-bit).
//
// A Telemetry is a handle: the instruments live in a shared core, while the
// trace sink is per-handle. WithTrace derives additional handles that fold
// counters into the same aggregate but write their trace events to their
// own sink — how cmd/coldd keeps one service-wide metric surface while
// giving every job its own trace file.
type Telemetry struct {
	rec *telemetry.JSONLRecorder
	*telemetryInstruments
}

// telemetryInstruments is the shared-core state behind one or more
// Telemetry handles.
type telemetryInstruments struct {
	evalDur *telemetry.Histogram

	runs            telemetry.Counter
	replicasStarted telemetry.Counter
	replicasDone    telemetry.Counter
	activeReplicas  telemetry.Gauge
	generations     telemetry.Counter
	evaluations     telemetry.Counter
	busyNs          telemetry.Counter
	queueNs         telemetry.Counter

	// Evaluator counters summed over finished replicas. Like every counter
	// they are outside the determinism contract: parallel GA workers racing
	// to evaluate one topology can shift hits, misses and sweeps.
	cacheHits   telemetry.Counter
	cacheMisses telemetry.Counter
	fullSweeps  telemetry.Counter
}

// NewTelemetry returns a ready Telemetry with no trace sink attached.
func NewTelemetry() *Telemetry {
	return &Telemetry{telemetryInstruments: &telemetryInstruments{
		evalDur: telemetry.NewHistogram(telemetry.DurationBuckets()),
	}}
}

// TraceTo attaches a JSONL trace sink: one JSON object per line, each
// stamped with the schema version ("v") and an "event" name (run_start,
// replica_start, generation, replica_end, run_end — see DESIGN.md
// for the full schema). Writes are serialized internally, so w needs no
// locking of its own; buffer and flush are the caller's concern. Attach
// before the first run using this Telemetry; the first write error is
// retained and returned by TraceErr, and later writes are dropped.
// Returns t for chaining.
func (t *Telemetry) TraceTo(w io.Writer) *Telemetry {
	t.rec = telemetry.NewJSONL(w)
	return t
}

// WithTrace returns a derived handle that shares t's instruments (every
// counter, gauge and histogram — and therefore RegisterMetrics output) but writes JSONL trace events to its own sink.
// Use it to give each run its own trace file while aggregating metrics
// service-wide; pair with Config.RunID so the trace carries a correlation
// ID. The receiver must be non-nil.
func (t *Telemetry) WithTrace(w io.Writer) *Telemetry {
	return &Telemetry{rec: telemetry.NewJSONL(w), telemetryInstruments: t.telemetryInstruments}
}

// TraceErr returns the first error the trace sink hit, or nil (also when
// no sink is attached).
func (t *Telemetry) TraceErr() error {
	if t == nil || t.rec == nil {
		return nil
	}
	return t.rec.Err()
}

// RegisterMetrics publishes every engine instrument into reg under the
// documented cold_* Prometheus names (DESIGN.md, "Observability"): run and
// replica counters, GA generation and evaluation totals, the evaluator's
// aggregated cache, sweep and CSR counters, and the evaluation latency
// histogram, exposed in seconds per the Prometheus base-unit convention.
// Values are read at scrape time. The receiver must be non-nil; cmd/coldd
// and coldgen -metrics serve the registry as GET /metrics.
func (t *Telemetry) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("cold_runs_total", "Ensemble runs started.", &t.runs)
	reg.Counter("cold_replicas_started_total", "Replicas picked up by a worker.", &t.replicasStarted)
	reg.Counter("cold_replicas_done_total", "Replicas finished, including failed ones.", &t.replicasDone)
	reg.Gauge("cold_active_replicas", "Replicas currently executing.", &t.activeReplicas)
	reg.Counter("cold_ga_generations_total", "GA generations completed across all replicas.", &t.generations)
	reg.Counter("cold_evaluations_total", "Cost-function calls, including memoized lookups.", &t.evaluations)
	reg.CounterFunc("cold_replica_busy_seconds_total", "Total replica wall time.",
		func() float64 { return float64(t.busyNs.Load()) / 1e9 })
	reg.CounterFunc("cold_replica_queue_wait_seconds_total", "Total replica wait from run start to worker pickup.",
		func() float64 { return float64(t.queueNs.Load()) / 1e9 })
	reg.DurationHistogram("cold_eval_duration_seconds", "Wall time of real (non-memoized) cost evaluations.", t.evalDur)
	reg.Counter("cold_eval_cache_hits_total", "Evaluator memo-cache hits (finished replicas).", &t.cacheHits)
	reg.Counter("cold_eval_cache_misses_total", "Evaluator memo-cache misses (finished replicas).", &t.cacheMisses)
	reg.Counter("cold_eval_full_sweeps_total", "All-sources shortest-path sweeps.", &t.fullSweeps)
}

// RecordCheckpoint emits a service-side "checkpoint" trace event: the
// caller durably persisted the first replicas artifact lines (bytes in
// total) of the run identified by runID. resumedFrom is the replica index
// the run resumed generation at (0 for a from-scratch run). cmd/coldd
// calls this each time it checkpoints a streaming ensemble job so the
// job's trace records its crash-recovery points; the engine itself never
// emits it. Nil-safe, and a no-op without a trace sink.
func (t *Telemetry) RecordCheckpoint(runID string, replicas, resumedFrom, bytes int) {
	t.record("checkpoint", telemetry.Checkpoint{
		RunID: runID, Replicas: replicas, ResumedFrom: resumedFrom, Bytes: bytes,
	})
}

// record emits one trace event when a sink is attached.
func (t *Telemetry) record(name string, payload any) {
	if t == nil || t.rec == nil {
		return
	}
	t.rec.Record(name, payload)
}

// runTracker scopes one ensemble run's trace events. A nil tracker
// (telemetry off) is inert.
type runTracker struct {
	t        *Telemetry
	runID    string
	replicas int
	workers  int
	span     telemetry.Span
}

// startRun opens an ensemble run scope for a normal-form config and emits
// run_start.
func (t *Telemetry) startRun(replicas, workers int, cfg Config) *runTracker {
	if t == nil {
		return nil
	}
	t.runs.Inc()
	t.record("run_start", telemetry.RunStart{
		RunID:    cfg.RunID,
		Replicas: replicas,
		Workers:  workers,
		NumPoPs:  cfg.NumPoPs,
		Pop:      cfg.Optimizer.PopulationSize,
		Gens:     cfg.Optimizer.Generations,
	})
	return &runTracker{t: t, runID: cfg.RunID, replicas: replicas, workers: workers, span: telemetry.StartSpan()}
}

// end closes the run scope and emits run_end.
func (r *runTracker) end() {
	if r == nil {
		return
	}
	r.t.record("run_end", telemetry.RunEnd{RunID: r.runID, Replicas: r.replicas, Workers: r.workers, DurNs: r.span.ElapsedNs()})
}

// replicaTracker scopes one replica's events: replica_start has already
// been emitted when it exists; the GA observer and end feed it. All methods
// are nil-safe; a replica runs on one goroutine, so prevEvals needs no
// locking.
type replicaTracker struct {
	t         *Telemetry
	replica   int
	worker    int
	span      telemetry.Span
	prevEvals uint64
}

// replica opens a replica scope (emitting replica_start) inside an optional
// run scope. Single-network runs pass run == nil and replica 0. Every
// replica of a run is eligible from the run's start, so its queue wait is
// the time from run start to worker pickup; a single network has none.
func (t *Telemetry) replica(run *runTracker, replica, worker int) *replicaTracker {
	if t == nil {
		return nil
	}
	var queueNs int64
	if run != nil {
		queueNs = run.span.ElapsedNs()
	}
	t.replicasStarted.Inc()
	t.activeReplicas.Add(1)
	t.queueNs.Add(uint64(queueNs))
	t.record("replica_start", telemetry.ReplicaStart{Replica: replica, Worker: worker, QueueNs: queueNs})
	return &replicaTracker{t: t, replica: replica, worker: worker, span: telemetry.StartSpan()}
}

// attach points the context's evaluator at the shared duration histogram.
func (rt *replicaTracker) attach(e *cost.Evaluator) {
	if rt == nil {
		return
	}
	e.SetDurationHistogram(rt.t.evalDur)
}

// observer returns the GA generation callback for this replica, or nil when
// telemetry is off (leaving core.Settings.Observer unset).
func (rt *replicaTracker) observer() func(core.GenStats) {
	if rt == nil {
		return nil
	}
	return func(st core.GenStats) {
		t := rt.t
		t.generations.Inc()
		t.evaluations.Add(st.Evals - rt.prevEvals)
		rt.prevEvals = st.Evals
		t.record("generation", telemetry.Generation{
			Replica:       rt.replica,
			Gen:           st.Gen,
			Best:          telemetry.SanitizeFloat(st.Best),
			Mean:          telemetry.SanitizeFloat(st.Mean),
			Worst:         telemetry.SanitizeFloat(st.Worst),
			Diversity:     st.Diversity,
			EliteSurvived: st.EliteSurvived,
			BreedNs:       st.BreedNs,
			EvalNs:        st.EvalNs,
			Evals:         st.Evals,
		})
	}
}

// end closes the replica scope: it folds the replica's wall time and
// evaluator counters into the shared instruments and emits replica_end
// carrying the same counters. e may be nil when the context never built.
func (rt *replicaTracker) end(nw *Network, e *cost.Evaluator, err error) {
	if rt == nil {
		return
	}
	t := rt.t
	dur := rt.span.ElapsedNs()
	t.activeReplicas.Add(-1)
	t.replicasDone.Inc()
	t.busyNs.Add(uint64(dur))
	ev := telemetry.ReplicaEnd{Replica: rt.replica, Worker: rt.worker, DurNs: dur}
	switch {
	case err != nil:
		ev.Err = err.Error()
	case nw != nil:
		ev.Cost = telemetry.SanitizeFloat(nw.Cost.Total)
		ev.Links = len(nw.Links)
	}
	if e != nil {
		st := e.Stats()
		ev.CacheHits, ev.CacheMisses, ev.FullSweeps = st.CacheHits, st.CacheMisses, st.FullSweeps
		t.cacheHits.Add(st.CacheHits)
		t.cacheMisses.Add(st.CacheMisses)
		t.fullSweeps.Add(st.FullSweeps)
	}
	t.record("replica_end", ev)
}
