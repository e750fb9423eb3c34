// Package telemetry provides the zero-dependency instruments behind COLD's
// observability layer: atomic counters and gauges, fixed-bucket histograms,
// monotonic span timers, and a JSONL recorder for machine-readable trace
// events.
//
// The package is deliberately passive. Instruments never consume random
// numbers, never mutate the data they observe, and never block the caller
// beyond an atomic operation or a stores-only mutex hold (histograms take a
// short lock so their snapshots are internally consistent; the JSONL
// recorder serializes writes with a mutex, but it only sees coarse
// per-generation/per-replica events, never memoized per-evaluation
// lookups). Components that record into it hold a nil-able
// pointer and pay exactly one nil-check when telemetry is off — the
// determinism contract "telemetry changes timings, never results" is
// enforced by the identity tests in the root package.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SchemaVersion identifies the JSONL trace-event schema. Every emitted line
// carries it as "v"; consumers must check it before parsing the rest.
// Version history: 1 — initial schema (run_start, replica_start,
// generation, phase, replica_end, run_end); 2 — run_start/run_end gain an
// optional "run_id" correlating a trace with service request logs; 3 —
// run_end drops the incremental-evaluation counters "delta_evals",
// "fallbacks", "base_hits", "base_misses", "base_evictions" and
// "base_distance" (the evaluator has a single full-sweep path); 4 — each
// number is written once: replica_end gains the replica's evaluator
// counters "cache_hits", "cache_misses" and "full_sweeps", the "phase"
// event is gone (sum the generation events' breed_ns and eval_ns), and
// run_end keeps only run_id, replicas, workers and dur_ns (busy time,
// utilization and evaluator totals are sums over replica_end).
const SchemaVersion = 4

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are safe for concurrent use. A nil *Counter is
// also safe: Add and Inc become no-ops and Load returns 0, so callers can
// keep optional counters behind one nil-check.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (e.g. in-flight replicas). The
// zero value is ready to use; nil receivers are no-ops like Counter's.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets chosen at construction.
// Bounds are upper bucket edges in ascending order; an implicit +Inf bucket
// catches overflow. Observe serializes on a short mutex (bucket search
// happens outside it, the critical section is three stores), which is what
// makes Snapshot internally consistent: Count always equals the sum of the
// bucket counts and Sum covers exactly the counted observations — the
// invariant Prometheus exposition needs, pinned by
// TestHistogramSnapshotConsistency under -race.
type Histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; last is the +Inf bucket
	count  uint64
	sum    float64
}

// NewHistogram builds a histogram over the given ascending upper bucket
// bounds (copied). It panics on empty or non-ascending bounds — bucket
// layouts are compile-time decisions, not runtime inputs.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d: %v <= %v", i, bounds[i], bounds[i-1]))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// DurationBuckets returns the default bucket bounds for wall-time
// observations in nanoseconds: powers of four from 1µs to ~4.4s. Thirteen
// buckets cover everything from a memoized cost lookup to a full ensemble
// replica with roughly half-decade resolution.
func DurationBuckets() []float64 {
	b := make([]float64, 0, 12)
	for ns := 1e3; ns < 5e9; ns *= 4 {
		b = append(b, ns)
	}
	return b
}

// Observe records one value. A nil histogram is a no-op, so optional
// instruments stay behind a single nil-check.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram's state. Counts
// has one entry per bound plus a final overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram's current state. The copy is internally
// consistent even during concurrent observation: Count equals the sum of
// Counts and Sum covers exactly those observations, so cumulative bucket
// exposition never shows a torn sum/count pair.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Bounds: append([]float64(nil), h.bounds...)}
	h.mu.Lock()
	s.Counts = append([]uint64(nil), h.counts...)
	s.Count = h.count
	s.Sum = h.sum
	h.mu.Unlock()
	return s
}

// Span is a monotonic interval timer. The zero Span is inert: Elapsed
// returns 0 and Running reports false, so "maybe timing" code paths can
// carry a Span unconditionally and only pay for time.Now when telemetry is
// live.
type Span struct{ start time.Time }

// StartSpan begins timing now (monotonic clock).
func StartSpan() Span { return Span{start: time.Now()} }

// Running reports whether the span was actually started.
func (s Span) Running() bool { return !s.start.IsZero() }

// ElapsedNs returns the nanoseconds since StartSpan, or 0 for the zero Span.
func (s Span) ElapsedNs() int64 {
	if s.start.IsZero() {
		return 0
	}
	return int64(time.Since(s.start))
}

// JSONLRecorder writes one JSON object per event line:
//
//	{"v":1,"event":"generation","replica":0,"gen":3,...}
//
// The schema version and event name are stamped by the recorder; payload
// fields follow. It is safe for concurrent use — ensemble replicas emit
// events from multiple goroutines: writes are serialized by a mutex; the first write or
// encoding error is retained (Err) and subsequent events are dropped, so a
// broken sink cannot wedge a run.
type JSONLRecorder struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONL returns a recorder emitting JSONL trace events to w.
func NewJSONL(w io.Writer) *JSONLRecorder { return &JSONLRecorder{w: w} }

// Record emits one trace event. name identifies the event type (see the
// payload structs in events.go); payload must marshal to a JSON object.
func (r *JSONLRecorder) Record(name string, payload any) {
	body, err := json.Marshal(payload)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	if err != nil {
		r.err = fmt.Errorf("telemetry: encoding %q event: %w", name, err)
		return
	}
	line := make([]byte, 0, len(body)+48)
	line = append(line, fmt.Sprintf(`{"v":%d,"event":%q`, SchemaVersion, name)...)
	if len(body) > 2 { // non-empty object: splice its fields in
		line = append(line, ',')
		line = append(line, body[1:len(body)-1]...)
	}
	line = append(line, '}', '\n')
	if _, err := r.w.Write(line); err != nil {
		r.err = fmt.Errorf("telemetry: writing %q event: %w", name, err)
	}
}

// Err returns the first write or encoding error, if any.
func (r *JSONLRecorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// CreateFile creates the trace file at path. It returns a buffered writer
// to attach as the recorder's sink, and a finish function that flushes
// and closes the file and returns the first error: recErr (the recorder's
// own first error, which leaves the file unflushed), then flush, then
// close.
func CreateFile(path string) (w *bufio.Writer, finish func(recErr error) error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	return bw, func(recErr error) error {
		if recErr == nil {
			recErr = bw.Flush()
		}
		if err := f.Close(); recErr == nil {
			recErr = err
		}
		return recErr
	}, nil
}
