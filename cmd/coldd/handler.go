package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/diag"
)

// maxBodyBytes bounds request bodies (LocFixed point lists and TrafficFixed
// population lists are the only fields that grow with NumPoPs).
const maxBodyBytes = 16 << 20

// maxPopulation bounds Optimizer.PopulationSize per request: 100× the
// paper's GA population. The GA allocates per-individual state up front,
// so an unbounded value is a one-request out-of-memory crash.
const maxPopulation = 10000

// generateRequest is the POST /v1/generate body: a cold.Config (Go field
// names; Parallelism/Telemetry/RunID are ignored — the service owns
// execution concerns) plus the ensemble size.
type generateRequest struct {
	Config cold.Config `json:"config"`
	Count  int         `json:"count"` // default 1
}

// handler builds the coldd mux, wrapped in the request-observability
// middleware (request IDs, access log, latency metrics — observe.go):
//
//	POST /v1/generate  generate (or serve cached) ensemble; JSONL, or SSE via
//	                   Accept: text/event-stream or ?stream=sse
//	GET  /metrics      Prometheus text exposition of every cold_* counter
//	GET  /healthz      liveness + build identity and uptime (JSON)
//	/debug/pprof/      net/http/pprof profiles
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	// net/http/pprof (imported by internal/diag) registers on the default
	// mux; only its subtree is exposed.
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	return s.instrument(mux)
}

// healthzResponse is the GET /healthz payload: liveness plus the build
// identity ("version", "go_version", "vcs_revision", "start") and uptime.
type healthzResponse struct {
	Status string `json:"status"`
	diag.Info
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(healthzResponse{ //nolint:errcheck
		Status:        "ok",
		Info:          diag.ProcessInfo(),
		UptimeSeconds: diag.Uptime().Seconds(),
	})
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck
}

func (s *server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req generateRequest
	if err := dec.Decode(&req); err != nil {
		s.badRequests.Inc()
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	count := req.Count
	if count == 0 {
		count = 1
	}
	if count < 1 {
		s.badRequests.Inc()
		httpError(w, http.StatusBadRequest, "count %d must be >= 1", count)
		return
	}
	if count > s.opts.maxCount {
		s.badRequests.Inc()
		httpError(w, http.StatusRequestEntityTooLarge, "count %d exceeds the server limit %d", count, s.opts.maxCount)
		return
	}
	if s.opts.maxPoPs > 0 && req.Config.NumPoPs > s.opts.maxPoPs {
		s.badRequests.Inc()
		httpError(w, http.StatusRequestEntityTooLarge, "NumPoPs %d exceeds the server limit %d", req.Config.NumPoPs, s.opts.maxPoPs)
		return
	}
	if p := req.Config.Optimizer.PopulationSize; p > maxPopulation {
		s.badRequests.Inc()
		httpError(w, http.StatusRequestEntityTooLarge, "Optimizer.PopulationSize %d exceeds the server limit %d", p, maxPopulation)
		return
	}
	hash, err := req.Config.Hash()
	if err != nil {
		if errors.Is(err, cold.ErrInvalidConfig) {
			s.badRequests.Inc()
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	key := artifactKey(hash, count)
	sse := wantSSE(r)
	ri := reqInfoFrom(r)
	ri.hash, ri.count = hash, count

	j, cache, err := s.lookup(req.Config, count, key, ri.id)
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	ri.cache, ri.jobID = cache, j.id
	s.streamJob(w, r, j, hash, count, cache, sse)
}

// wantSSE reports whether the client asked for server-sent events, either
// by content negotiation (Accept: text/event-stream) or the ?stream=sse
// query parameter (for clients that can't set headers).
func wantSSE(r *http.Request) bool {
	return r.URL.Query().Get("stream") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// writeHeaders stamps the response metadata. The body of a JSONL response
// is exactly the artifact bytes — cache status travels in headers only, so
// hit and miss responses are byte-identical.
func (s *server) writeHeaders(w http.ResponseWriter, hash string, count int, cache string, sse bool) {
	h := w.Header()
	if sse {
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
	} else {
		h.Set("Content-Type", "application/x-ndjson")
	}
	h.Set("X-Cold-Config-Hash", hash)
	h.Set("X-Cold-Count", strconv.Itoa(count))
	h.Set("X-Cold-Cache", cache)
}

// streamJob tails a job, live or a finished store hit, writing artifact
// bytes (or one SSE network event per line) as replicas finish. Headers
// are deferred until the first byte or completion so early failures still
// get a real status code. Chunks are flushed only while more may follow
// or when the job failed, so a hit goes out as one write. Client
// disconnection releases the caller's interest in the job, cancelling the
// generation if it was the last one.
func (s *server) streamJob(w http.ResponseWriter, r *http.Request, j *job, hash string, count int, cache string, sse bool) {
	defer j.leave()
	flusher, _ := w.(http.Flusher)
	off := 0
	sent := false
	for {
		chunk, done, jerr, next := j.snapshot(off)
		if len(chunk) == 0 && !done {
			select {
			case <-next:
				continue
			case <-r.Context().Done():
				return
			}
		}
		if !sent {
			if done && jerr != nil && off == 0 {
				s.writeJobError(w, jerr)
				return
			}
			s.writeHeaders(w, hash, count, cache, sse)
			sent = true
		}
		off += len(chunk)
		if sse {
			for len(chunk) > 0 { // job chunks are whole lines
				i := bytes.IndexByte(chunk, '\n')
				fmt.Fprintf(w, "event: network\ndata: %s\n\n", chunk[:i])
				chunk = chunk[i+1:]
			}
		} else if len(chunk) > 0 {
			w.Write(chunk) //nolint:errcheck
		}
		if flusher != nil && (!done || jerr != nil) {
			flusher.Flush()
		}
		if done {
			if jerr != nil {
				if sse {
					fmt.Fprintf(w, "event: error\ndata: %s\n\n", jsonString(jerr.Error()))
					return
				}
				// The status line is gone; aborting the connection is the
				// only honest way to tell a JSONL client the body is
				// truncated.
				panic(http.ErrAbortHandler)
			}
			if sse {
				writeSSEDone(w, hash, count, cache)
			}
			return
		}
	}
}

// writeJobError maps a job failure (before any bytes were streamed) to a
// status code.
func (s *server) writeJobError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errShutdown):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The job's context died under us (the job was abandoned in the
		// instant before we boarded it).
		httpError(w, http.StatusServiceUnavailable, "generation canceled: %v", err)
	case errors.Is(err, cold.ErrInvalidConfig):
		httpError(w, http.StatusBadRequest, "%v", err)
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

func writeSSEDone(w http.ResponseWriter, hash string, count int, cache string) {
	fmt.Fprintf(w, "event: done\ndata: {\"hash\":%s,\"count\":%d,\"cache\":%s}\n\n",
		jsonString(hash), count, jsonString(cache))
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
