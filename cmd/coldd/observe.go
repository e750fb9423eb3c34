package main

// Request-level observability: every request gets a generated ID (returned
// as X-Cold-Request-Id), one structured log line, and a latency/size
// observation labeled by route and status. Handlers annotate the in-flight
// request's reqInfo (config hash, cache status, job ID) via the context so
// the access log can correlate HTTP requests with generation jobs and
// their JSONL trace files (DESIGN.md, "Observability").

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"github.com/networksynth/cold/internal/diag"
	"github.com/networksynth/cold/internal/store"
	"github.com/networksynth/cold/internal/telemetry"
)

// newRequestID returns a 16-hex-char random ID. Request IDs name trace
// files on disk, so they stay within the store key alphabet [a-z0-9].
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; IDs degrade to a
		// constant rather than taking the service down.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// reqInfo is the per-request annotation record the middleware seeds and
// handlers fill in. It is written by exactly one handler goroutine and
// read after ServeHTTP returns, so it needs no locking.
type reqInfo struct {
	id    string
	hash  string // canonical config hash, once parsed
	cache string // "hit" or "miss", once resolved
	jobID string // generation job this request started or joined
	count int    // requested ensemble size
}

type reqInfoKey struct{}

// reqInfoFrom returns the request's annotation record. Requests that did
// not pass through the middleware (direct handler tests) get a throwaway
// record so handlers never branch.
func reqInfoFrom(r *http.Request) *reqInfo {
	if ri, ok := r.Context().Value(reqInfoKey{}).(*reqInfo); ok {
		return ri
	}
	return &reqInfo{}
}

// statusWriter captures the status code and body size for the access log
// and the request metrics. Flush is forwarded so SSE streaming keeps
// working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the service mux with per-request observability. The log
// line and metric observation are deferred so they also cover handlers
// that panic with http.ErrAbortHandler (truncated streams).
func (s *server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ri := &reqInfo{id: newRequestID()}
		// Resolve the route pattern before dispatch; unmatched requests
		// (404s) share one label so the metric's cardinality stays bounded.
		_, route := mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		w.Header().Set("X-Cold-Request-Id", ri.id)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			status := sw.status
			if status == 0 { // handler never wrote; net/http sends 200
				status = http.StatusOK
			}
			dur := time.Since(start)
			s.reqDur.With(route, strconv.Itoa(status)).Observe(float64(dur))
			s.respBytes.Observe(float64(sw.bytes))
			attrs := []slog.Attr{
				slog.String("req_id", ri.id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", status),
				slog.Duration("dur", dur),
				slog.Int64("bytes", sw.bytes),
			}
			if ri.hash != "" {
				attrs = append(attrs, slog.String("config_hash", ri.hash), slog.Int("count", ri.count))
			}
			if ri.cache != "" {
				attrs = append(attrs, slog.String("cache", ri.cache))
			}
			if ri.jobID != "" {
				attrs = append(attrs, slog.String("job_id", ri.jobID))
			}
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}()
		mux.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri)))
	})
}

// registerMetrics publishes the full coldd metric surface into reg: engine
// instruments (cold.Telemetry), build identity and Go runtime health, the
// service's request/job counters, and the request, queue-wait and store
// latency histograms. Metric names are documented in DESIGN.md
// ("Observability").
func (s *server) registerMetrics(reg *telemetry.Registry) {
	s.tel.RegisterMetrics(reg)
	diag.RegisterBuildInfo(reg)
	diag.RegisterRuntime(reg)

	reg.Counter("cold_http_requests_total", "HTTP generate requests received.", &s.requests)
	reg.Counter("cold_http_bad_requests_total", "Generate requests rejected as invalid.", &s.badRequests)
	reg.Counter("cold_artifact_cache_hits_total", "Requests served straight from the artifact store.", &s.cacheHits)
	reg.Counter("cold_artifact_cache_misses_total", "Requests that started (or queued) a generation job.", &s.cacheMisses)
	reg.Counter("cold_singleflight_shared_total", "Requests collapsed onto an identical in-flight job.", &s.sfShared)
	reg.Counter("cold_generation_jobs_total", "Jobs that entered the generator.", &s.generations)
	reg.Counter("cold_queue_full_total", "Requests shed with 429 because the job queue was full.", &s.queueFull)
	reg.Counter("cold_jobs_canceled_total", "Jobs canceled before completing (abandoned or shut down).", &s.canceled)
	reg.Counter("cold_checkpoint_writes_total", "Ensemble checkpoints persisted to the artifact store.", &s.ckptWrites)
	reg.Counter("cold_checkpoint_resumes_total", "Jobs resumed from a persisted checkpoint.", &s.ckptResumes)
	reg.Counter("cold_checkpoint_resumed_replicas_total", "Replicas restored from checkpoints instead of regenerated.", &s.ckptResumedReplicas)
	reg.GaugeFunc("cold_queue_depth", "Admitted jobs (running + waiting for a slot).",
		func() float64 { return float64(s.q.depth()) })

	reg.DurationHistogramVec("cold_http_request_duration_seconds", "HTTP request wall time by route and status.", s.reqDur)
	reg.Histogram("cold_http_response_bytes", "HTTP response body size in bytes.", s.respBytes)
	reg.DurationHistogram("cold_queue_wait_seconds", "Job wait for a generation slot (successful waits).", s.queueWait)
	reg.DurationHistogram("cold_store_get_duration_seconds", "Artifact store Get wall time.", s.storeGet)
	reg.DurationHistogram("cold_store_put_duration_seconds", "Artifact store Put wall time.", s.storePut)

	st := func(get func(s store.Stats) float64) func() float64 {
		return func() float64 { return get(s.store.Stats()) }
	}
	reg.CounterFunc("cold_store_hits_total", "Artifact store lookup hits.",
		st(func(st store.Stats) float64 { return float64(st.Hits) }))
	reg.CounterFunc("cold_store_misses_total", "Artifact store lookup misses.",
		st(func(st store.Stats) float64 { return float64(st.Misses) }))
	reg.CounterFunc("cold_store_puts_total", "Artifacts written to the store.",
		st(func(st store.Stats) float64 { return float64(st.Puts) }))
	reg.CounterFunc("cold_store_evictions_total", "Artifacts evicted past the LRU size bound.",
		st(func(st store.Stats) float64 { return float64(st.Evictions) }))
	reg.GaugeFunc("cold_store_entries", "Artifacts currently stored.",
		st(func(st store.Stats) float64 { return float64(st.Entries) }))
	reg.GaugeFunc("cold_store_bytes", "Bytes currently stored.",
		st(func(st store.Stats) float64 { return float64(st.Bytes) }))
	reg.GaugeFunc("cold_store_partials", "Checkpoint (partial) artifacts currently stored.",
		st(func(st store.Stats) float64 { return float64(st.Partials) }))
	reg.CounterFunc("cold_store_partials_dropped_total", "Checkpoints removed as superseded, orphaned, invalid or promoted.",
		st(func(st store.Stats) float64 { return float64(st.PartialsDropped) }))
	reg.CounterFunc("cold_store_temp_swept_total", "Stale temp files from crashed writers deleted at store open.",
		st(func(st store.Stats) float64 { return float64(st.TempSwept) }))
}

// sizeBuckets are the response-size bounds: powers of 16 from 256B to
// ~17GB — wide half-decade coverage from an error body to a huge ensemble.
func sizeBuckets() []float64 {
	b := make([]float64, 0, 9)
	for v := 256.0; v < 2e10; v *= 16 {
		b = append(b, v)
	}
	return b
}
