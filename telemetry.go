package cold

import (
	"io"
	"sync"

	"github.com/networksynth/cold/internal/core"
	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/telemetry"
)

// TraceSchemaVersion is the JSONL trace schema version stamped into every
// event line as "v". The schema is documented in DESIGN.md ("Observability").
const TraceSchemaVersion = telemetry.SchemaVersion

// EvalStats are the cost evaluator's counters: memoization effectiveness,
// full shortest-path sweeps and CSR snapshots. Counter values are NOT part
// of the determinism contract — generated networks are bit-identical across
// Parallelism and telemetry settings, but parallel workers racing to
// evaluate the same topology can shift hit/miss and sweep counts between
// runs.
type EvalStats struct {
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// FullSweeps counts all-sources shortest-path sweeps.
	FullSweeps uint64 `json:"full_sweeps"`
	// CSRBuilds counts flat-memory CSR graph snapshots built (one per
	// routed graph; the buffers themselves are pooled per evaluator).
	CSRBuilds uint64 `json:"csr_builds"`
	// Kernel is the shortest-path kernel the evaluator selected: "heap" or
	// "linear". Empty in aggregated (multi-replica) stats.
	Kernel string `json:"kernel,omitempty"`
}

func newEvalStats(s cost.Stats) EvalStats {
	return EvalStats{
		CacheHits:   s.CacheHits,
		CacheMisses: s.CacheMisses,
		FullSweeps:  s.FullSweeps,
		CSRBuilds:   s.CSRBuilds,
		Kernel:      s.Kernel,
	}
}

// add folds one replica's evaluator counters into the aggregate (Kernel is
// per-evaluator, so it is dropped). Callers hold whatever lock guards a.
func (a *EvalStats) add(s cost.Stats) {
	a.CacheHits += s.CacheHits
	a.CacheMisses += s.CacheMisses
	a.FullSweeps += s.FullSweeps
	a.CSRBuilds += s.CSRBuilds
}

// TelemetrySnapshot is a point-in-time view of a Telemetry's aggregated
// counters, safe to read while runs are in flight. The same values, plus
// the evaluation latency histogram, are what RegisterMetrics publishes.
type TelemetrySnapshot struct {
	Runs            uint64 `json:"runs"`             // ensemble runs started
	ReplicasStarted uint64 `json:"replicas_started"` // replicas picked up
	ReplicasDone    uint64 `json:"replicas_done"`    // replicas finished (incl. failed)
	ActiveReplicas  int64  `json:"active_replicas"`  // currently executing
	Generations     uint64 `json:"generations"`      // GA generations completed
	Evaluations     uint64 `json:"evaluations"`      // cost-function calls (incl. memoized)

	BusyNs  int64 `json:"busy_ns"`  // Σ replica wall time
	QueueNs int64 `json:"queue_ns"` // Σ replica queue wait before pickup

	// Eval aggregates evaluator counters across all finished replicas
	// (in-flight replicas contribute after they end).
	Eval EvalStats `json:"eval"`
}

// Telemetry collects metrics and (optionally) a JSONL event trace from every
// run of a Config that points at it. The zero value is not usable; create
// with NewTelemetry. A nil *Telemetry disables all collection — the hot
// paths then pay a single nil check.
//
// One Telemetry may be shared by concurrent runs; instruments are atomic
// and Snapshot is safe at any time. Attaching telemetry never changes
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

	mu  sync.Mutex
	agg EvalStats // evaluator counters summed over finished replicas
}

// NewTelemetry returns a ready Telemetry with no trace sink attached.
func NewTelemetry() *Telemetry {
	return &Telemetry{telemetryInstruments: &telemetryInstruments{
		evalDur: telemetry.NewHistogram(telemetry.DurationBuckets()),
	}}
}

// TraceTo attaches a JSONL trace sink: one JSON object per line, each
// stamped with the schema version ("v") and an "event" name (run_start,
// replica_start, generation, phase, replica_end, run_end — see DESIGN.md
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
// counter, gauge and histogram — and therefore Snapshot and
// RegisterMetrics output) but writes JSONL trace events to its own sink.
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

// Snapshot returns a point-in-time view of every counter. Safe to call
// concurrently with runs.
func (t *Telemetry) Snapshot() TelemetrySnapshot {
	if t == nil {
		return TelemetrySnapshot{}
	}
	t.mu.Lock()
	agg := t.agg
	t.mu.Unlock()
	return TelemetrySnapshot{
		Runs:            t.runs.Load(),
		ReplicasStarted: t.replicasStarted.Load(),
		ReplicasDone:    t.replicasDone.Load(),
		ActiveReplicas:  t.activeReplicas.Load(),
		Generations:     t.generations.Load(),
		Evaluations:     t.evaluations.Load(),
		BusyNs:          int64(t.busyNs.Load()),
		QueueNs:         int64(t.queueNs.Load()),
		Eval:            agg,
	}
}

// RegisterMetrics publishes every engine instrument into reg under the
// documented cold_* Prometheus names (DESIGN.md, "Observability"): run and
// replica counters, GA generation and evaluation totals, the evaluator's
// aggregated cache, sweep and CSR counters, and the evaluation latency
// histogram, exposed in seconds per
// the Prometheus base-unit convention. Values are read at scrape time from
// the same instruments Snapshot reads. The receiver must be
// non-nil; in-module consumers (cmd/coldd, internal/diag) serve the
// registry as GET /metrics.
func (t *Telemetry) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("cold_runs_total", "Ensemble runs started.", &t.runs)
	reg.Counter("cold_replicas_started_total", "Replicas picked up by a worker.", &t.replicasStarted)
	reg.Counter("cold_replicas_done_total", "Replicas finished, including failed ones.", &t.replicasDone)
	reg.Gauge("cold_active_replicas", "Replicas currently executing.", &t.activeReplicas)
	reg.Counter("cold_ga_generations_total", "GA generations completed across all replicas.", &t.generations)
	reg.Counter("cold_evaluations_total", "Cost-function calls, including memoized lookups.", &t.evaluations)
	reg.CounterFunc("cold_replica_busy_seconds_total", "Total replica wall time.",
		func() float64 { return float64(t.busyNs.Load()) / 1e9 })
	reg.CounterFunc("cold_replica_queue_wait_seconds_total", "Total replica wait between eligibility and worker pickup.",
		func() float64 { return float64(t.queueNs.Load()) / 1e9 })
	reg.DurationHistogram("cold_eval_duration_seconds", "Wall time of real (non-memoized) cost evaluations.", t.evalDur)

	agg := func(get func(EvalStats) uint64) func() float64 {
		return func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(get(t.agg))
		}
	}
	reg.CounterFunc("cold_eval_cache_hits_total", "Evaluator memo-cache hits (finished replicas).",
		agg(func(s EvalStats) uint64 { return s.CacheHits }))
	reg.CounterFunc("cold_eval_cache_misses_total", "Evaluator memo-cache misses (finished replicas).",
		agg(func(s EvalStats) uint64 { return s.CacheMisses }))
	reg.CounterFunc("cold_eval_full_sweeps_total", "All-sources shortest-path sweeps.",
		agg(func(s EvalStats) uint64 { return s.FullSweeps }))
	reg.CounterFunc("cold_eval_csr_builds_total", "Flat-memory CSR graph snapshots built.",
		agg(func(s EvalStats) uint64 { return s.CSRBuilds }))
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

// addEvalStats folds one finished replica's evaluator counters into the
// aggregate.
func (t *Telemetry) addEvalStats(s cost.Stats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.agg.add(s)
}

// runTracker scopes one ensemble run's trace events and rollups. A nil
// tracker (telemetry off) is inert.
type runTracker struct {
	t        *Telemetry
	runID    string
	replicas int
	workers  int
	span     telemetry.Span
	busyNs   telemetry.Counter

	mu  sync.Mutex
	agg EvalStats
}

// startRun opens an ensemble run scope and emits run_start.
func (t *Telemetry) startRun(replicas, workers int, cfg Config) *runTracker {
	if t == nil {
		return nil
	}
	t.runs.Inc()
	settings := core.DefaultSettings()
	if cfg.Optimizer.PopulationSize != 0 {
		settings.PopulationSize = cfg.Optimizer.PopulationSize
	}
	if cfg.Optimizer.Generations != 0 {
		settings.Generations = cfg.Optimizer.Generations
	}
	t.record("run_start", telemetry.RunStart{
		RunID:    cfg.RunID,
		Replicas: replicas,
		Workers:  workers,
		NumPoPs:  cfg.NumPoPs,
		Pop:      settings.PopulationSize,
		Gens:     settings.Generations,
	})
	return &runTracker{t: t, runID: cfg.RunID, replicas: replicas, workers: workers, span: telemetry.StartSpan()}
}

// end closes the run scope and emits run_end with utilization and the
// evaluator counter totals across the run's replicas.
func (r *runTracker) end() {
	if r == nil {
		return
	}
	dur := r.span.ElapsedNs()
	busy := int64(r.busyNs.Load())
	util := 0.0
	if dur > 0 && r.workers > 0 {
		util = float64(busy) / (float64(dur) * float64(r.workers))
	}
	r.mu.Lock()
	agg := r.agg
	r.mu.Unlock()
	r.t.record("run_end", telemetry.RunEnd{
		RunID:       r.runID,
		Replicas:    r.replicas,
		Workers:     r.workers,
		DurNs:       dur,
		BusyNs:      busy,
		Utilization: util,
		CacheHits:   agg.CacheHits,
		CacheMisses: agg.CacheMisses,
		FullSweeps:  agg.FullSweeps,
	})
}

func (r *runTracker) addEvalStats(s cost.Stats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.agg.add(s)
}

// replicaTracker scopes one replica's events: replica_start has already
// been emitted when it exists; the GA observer and end feed it. All methods
// are nil-safe; a replica runs on one goroutine, so the non-atomic fields
// need no locking.
type replicaTracker struct {
	t       *Telemetry
	run     *runTracker
	replica int
	worker  int
	span    telemetry.Span

	prevEvals uint64
	breedNs   int64
	evalNs    int64
	gens      int
}

// replica opens a replica scope (emitting replica_start) inside an optional
// run scope. Single-network runs pass run == nil and replica 0.
func (t *Telemetry) replica(run *runTracker, replica, worker int, queueNs int64) *replicaTracker {
	if t == nil {
		return nil
	}
	t.replicasStarted.Inc()
	t.activeReplicas.Add(1)
	t.queueNs.Add(uint64(queueNs))
	t.record("replica_start", telemetry.ReplicaStart{Replica: replica, Worker: worker, QueueNs: queueNs})
	return &replicaTracker{t: t, run: run, replica: replica, worker: worker, span: telemetry.StartSpan()}
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
		rt.breedNs += st.BreedNs
		rt.evalNs += st.EvalNs
		rt.gens++
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

// end closes the replica scope: phase rollups, replica_end, and the
// evaluator counter aggregation. e may be nil when the context never built.
func (rt *replicaTracker) end(nw *Network, e *cost.Evaluator, err error) {
	if rt == nil {
		return
	}
	t := rt.t
	dur := rt.span.ElapsedNs()
	t.activeReplicas.Add(-1)
	t.replicasDone.Inc()
	t.busyNs.Add(uint64(dur))
	rt.run.busy(dur)
	if rt.gens > 0 {
		t.record("phase", telemetry.PhaseTotal{Replica: rt.replica, Phase: "breed", TotalNs: rt.breedNs, Count: rt.gens})
		t.record("phase", telemetry.PhaseTotal{Replica: rt.replica, Phase: "evaluate", TotalNs: rt.evalNs, Count: rt.gens})
	}
	ev := telemetry.ReplicaEnd{Replica: rt.replica, Worker: rt.worker, DurNs: dur}
	switch {
	case err != nil:
		ev.Err = err.Error()
	case nw != nil:
		ev.Cost = telemetry.SanitizeFloat(nw.Cost.Total)
		ev.Links = len(nw.Links)
	}
	t.record("replica_end", ev)
	if e != nil {
		st := e.Stats()
		t.addEvalStats(st)
		rt.run.addEvalStats(st)
	}
}

// busy folds one replica's wall time into the run rollup.
func (r *runTracker) busy(durNs int64) {
	if r == nil {
		return
	}
	r.busyNs.Add(uint64(durNs))
}
