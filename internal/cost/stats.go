package cost

import (
	"github.com/networksynth/cold/internal/telemetry"
)

// Evaluator observability: cheap always-on counters (shared across Clones,
// like the memoization cache) plus an optional per-evaluation duration
// histogram attached through SetDurationHistogram. Everything here is
// passive — counters never consume randomness and never influence which
// code path runs, so telemetry on/off cannot change results (the root
// package's identity tests enforce this).

// evalCounters are the always-on evaluator counters, shared across an
// Evaluator and all its Clones (one atomic add per event; negligible next
// to the sweeps they count).
type evalCounters struct {
	fullSweeps telemetry.Counter // all-sources Dijkstra sweeps
}

// FallbackCounts is the type of the deprecated Stats.Fallbacks field. It
// carries no counts: the incremental evaluation path whose fallbacks it
// once broke down by reason no longer exists.
type FallbackCounts struct{}

// Total is always 0.
func (FallbackCounts) Total() uint64 { return 0 }

// Stats is a point-in-time snapshot of an evaluator's counters, summed over
// the evaluator and all its Clones. Counter values are not part of the
// determinism contract: results are bit-identical across parallelism and
// telemetry settings, but hit/miss and sweep counts may differ when workers
// race to evaluate the same topology.
type Stats struct {
	// CacheHits and CacheMisses count memoization lookups.
	CacheHits   uint64
	CacheMisses uint64
	// FullSweeps counts all-sources Dijkstra sweeps.
	FullSweeps uint64

	// DeltaEvals is always 0.
	//
	// Deprecated: the incremental evaluation path it counted no longer
	// exists. The field remains so that code written against earlier
	// releases, perfbench among it, still compiles.
	DeltaEvals uint64
	// Fallbacks is always empty.
	//
	// Deprecated: kept for the same compatibility reason as DeltaEvals.
	Fallbacks FallbackCounts
}

// Stats returns the evaluator's current counter snapshot.
func (e *Evaluator) Stats() Stats {
	hits, misses := e.cache.stats()
	return Stats{
		CacheHits:   hits,
		CacheMisses: misses,
		FullSweeps:  e.counters.fullSweeps.Load(),
	}
}

// SetDurationHistogram attaches a histogram observing the wall time (in
// nanoseconds) of every real evaluation: full sweeps and Evaluate
// breakdowns. Memoization hits are not observed —
// the histogram answers "how long does evaluating a topology take", not
// "how long does a lookup take". The histogram is shared with Clones made
// after the call; pass nil to detach. Attaching a histogram changes
// timings only, never results.
func (e *Evaluator) SetDurationHistogram(h *telemetry.Histogram) { e.durHist = h }

// startSpan begins a duration observation when a histogram is attached; the
// zero Span otherwise (observe then ignores it).
func (e *Evaluator) startSpan() telemetry.Span {
	if e.durHist == nil {
		return telemetry.Span{}
	}
	return telemetry.StartSpan()
}

// observe completes a duration observation started by startSpan.
func (e *Evaluator) observe(s telemetry.Span) {
	if e.durHist != nil && s.Running() {
		e.durHist.Observe(float64(s.ElapsedNs()))
	}
}
