package telemetry

import "math"

// Trace-event payloads, schema version 4 (SchemaVersion). Each struct
// corresponds to one event name; the JSONL recorder stamps "v" and "event"
// and splices the payload fields after them. Replica indices are zero-based;
// single-network runs (Generate) report replica 0. Event names:
//
//	run_start     — one per ensemble run, before any replica starts
//	replica_start — a worker picked up a replica
//	generation    — one per GA generation of every replica
//	replica_end   — a replica finished (or failed: Err non-empty)
//	checkpoint    — a streaming consumer durably persisted the run's
//	                in-order prefix (service-side; emitted by cmd/coldd)
//	run_end       — one per ensemble run, after all replicas
//
// The checkpoint event was added within schema v2: readers tolerate event
// names they do not know (coldstats counts and skips them).
//
// Each number is recorded once. Rollups (a replica's breed and evaluate
// time, a run's busy time and utilization, a run's evaluator totals) are
// sums a reader computes from these events, not events of their own.
//
// All durations are nanoseconds of monotonic wall time. Cost fields are
// sanitized: ±Inf and NaN (possible only for degenerate configurations)
// are clamped to ±MaxFloat64 so every event is valid JSON.

// RunStart describes an ensemble run about to execute. RunID (schema v2,
// optional) is the caller-assigned correlation ID — cmd/coldd stamps its
// per-request job ID here so a service log line joins to the run trace it
// produced; it never influences generation.
type RunStart struct {
	RunID    string `json:"run_id,omitempty"`
	Replicas int    `json:"replicas"`
	Workers  int    `json:"workers"`
	NumPoPs  int    `json:"n"`
	Pop      int    `json:"pop"`
	Gens     int    `json:"gens"`
}

// ReplicaStart marks a replica beginning execution on a worker. QueueNs is
// how long the replica waited from its run's start to a worker picking it
// up (0 for a single-network run).
type ReplicaStart struct {
	Replica int   `json:"replica"`
	Worker  int   `json:"worker"`
	QueueNs int64 `json:"queue_ns"`
}

// Generation reports one GA generation's population statistics.
type Generation struct {
	Replica int     `json:"replica"`
	Gen     int     `json:"gen"`
	Best    float64 `json:"best"`
	Mean    float64 `json:"mean"`
	Worst   float64 `json:"worst"`
	// Diversity is the mean edge-set distance (graph.DiffCount) from the
	// generation's best member to every other member.
	Diversity float64 `json:"diversity"`
	// EliteSurvived counts members of the previous generation's elite that
	// remain in the current elite (0 for generation 0).
	EliteSurvived int    `json:"elite_survived"`
	BreedNs       int64  `json:"breed_ns"`
	EvalNs        int64  `json:"eval_ns"`
	Evals         uint64 `json:"evals"` // cumulative cost-function calls this run
}

// ReplicaEnd marks a replica finishing. On failure Err carries the error
// text and the result fields are zero. The evaluator counters (schema v4)
// are the replica's own evaluator's memo-cache hits and misses and
// all-sources shortest-path sweeps; each replica owns its evaluator, so
// they are exact, and they are zero when the context never built. Like
// every counter they are outside the determinism contract: the GA's
// parallel workers racing to evaluate one topology can shift them.
type ReplicaEnd struct {
	Replica     int     `json:"replica"`
	Worker      int     `json:"worker"`
	DurNs       int64   `json:"dur_ns"`
	Cost        float64 `json:"cost"`
	Links       int     `json:"links"`
	Err         string  `json:"err,omitempty"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	FullSweeps  uint64  `json:"full_sweeps"`
}

// Checkpoint is a service-side event: a streaming consumer (cmd/coldd's
// job runner — the engine itself never checkpoints) durably persisted the
// run's first Replicas artifact lines, Bytes total. ResumedFrom is the
// replica index the surrounding run resumed generation at, 0 for a
// from-scratch run.
type Checkpoint struct {
	RunID       string `json:"run_id,omitempty"`
	Replicas    int    `json:"replicas"`
	ResumedFrom int    `json:"resumed_from,omitempty"`
	Bytes       int    `json:"bytes"`
}

// RunEnd closes an ensemble run after all its replicas. A run's busy
// time, utilization and evaluator totals are sums over its replica_end
// events (schema v1 to v3 also wrote them here).
type RunEnd struct {
	RunID    string `json:"run_id,omitempty"` // schema v2; matches the run's run_start
	Replicas int    `json:"replicas"`
	Workers  int    `json:"workers"`
	DurNs    int64  `json:"dur_ns"`
}

// SanitizeFloat clamps non-finite values so they survive JSON encoding:
// NaN maps to 0, ±Inf to ±MaxFloat64.
func SanitizeFloat(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	default:
		return v
	}
}
