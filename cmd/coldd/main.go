// Command coldd is a long-lived HTTP service generating COLD topology
// ensembles for many concurrent clients, with a persistent
// content-addressed result cache.
//
// COLD is deterministic: a Config fully determines its output ensemble, so
// requests are cached under the canonical config hash
// (cold.Config.Hash()) — identical requests cost one generation, however
// many clients send them. Concurrent identical requests are collapsed onto
// a single in-flight job (single-flight) and all stream its results as
// replicas finish. A bounded job queue (-jobs running, -queue waiting)
// sheds load with 429 beyond that, and abandoning a request cancels its
// generation, freeing the queue slot.
//
// Usage:
//
//	coldd -addr localhost:8264 -cache /var/cache/coldd -jobs 2 -queue 64 \
//	      -log-format json -trace-dir /var/log/coldd/traces
//
//	curl -s localhost:8264/v1/generate -d '{"config":{"NumPoPs":20,"Seed":1},"count":4}'
//	curl -s localhost:8264/metrics      # Prometheus text exposition: every counter
//	curl -s localhost:8264/healthz      # liveness + build identity
//
// Every request gets an X-Cold-Request-Id and one structured log line;
// the request that starts a generation job lends the job its ID, which
// names the job's JSONL trace file under -trace-dir and is stamped into
// the trace's run_start/run_end events (run_id) — see DESIGN.md
// ("Observability") and `coldstats trace` for analysis.
//
// See DESIGN.md ("Service API") for endpoints, schemas, and the cache-key
// contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/networksynth/cold/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "coldd:", err)
		os.Exit(1)
	}
}

// newLogger builds the service's structured logger on stderr from the
// -log-level and -log-format flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: want debug, info, warn or error", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q: want text or json", format)
	}
}

// A client must send its request headers within readHeaderTimeout, and a
// keep-alive connection that idles for idleTimeout is closed, so a stalled
// or abandoned client cannot hold a connection and its goroutine forever.
// Body reads and response writes have no deadline yet: a response streams
// for as long as its job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// httpServer is coldd's HTTP server for handler h, with the connection
// timeouts above.
func httpServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func defaultCacheDir() string {
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "coldd")
	}
	return filepath.Join(os.TempDir(), "coldd-cache")
}

func run() error {
	addr := flag.String("addr", "localhost:8264", "listen address (host:port; port 0 picks a free one)")
	cacheDir := flag.String("cache", defaultCacheDir(), "artifact cache directory")
	cacheMax := flag.Int64("cache-max-bytes", 1<<30, "artifact cache LRU size bound in bytes (0 = unbounded)")
	jobs := flag.Int("jobs", 2, "concurrent generation jobs")
	queueDepth := flag.Int("queue", 64, "queued (admitted but not yet running) jobs before 429")
	parallel := flag.Int("parallel", 0, "worker goroutines per generation job (0 = all CPUs)")
	maxCount := flag.Int("max-count", 256, "largest ensemble size a request may ask for")
	maxPoPs := flag.Int("max-pops", 512, "largest NumPoPs a request may ask for")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log encoding: text, json")
	traceDir := flag.String("trace-dir", "", "write one JSONL telemetry trace per generation job to this directory (file name = job ID)")
	ckptEvery := flag.Int("checkpoint-every", 16, "persist a resumable checkpoint of each in-flight ensemble every this-many replicas (0 writes none; a leftover checkpoint still resumes)")
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
	}

	st, err := store.Open(*cacheDir, store.Options{MaxBytes: *cacheMax})
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM drain the server and cancel in-flight generations
	// (both signals behave identically). The jobs' base context is
	// deliberately NOT the signal context: the drain sequence below tags
	// the shutdown first (beginShutdown), then cancels jobs, so mid-stream
	// clients get the documented shutdown error instead of a generic one.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	jobsCtx, cancelJobs := context.WithCancel(context.Background())
	defer cancelJobs()

	s := newServer(serverOptions{
		store:           st,
		base:            jobsCtx,
		jobs:            *jobs,
		queueDepth:      *queueDepth,
		parallel:        *parallel,
		maxCount:        *maxCount,
		maxPoPs:         *maxPoPs,
		logger:          logger,
		traceDir:        *traceDir,
		checkpointEvery: *ckptEvery,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := httpServer(s.handler())
	fmt.Fprintf(os.Stderr, "coldd: listening on http://%s (cache %s)\n", ln.Addr(), st.Dir())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Drain: flag the shutdown, cancel in-flight generations (tagged jobs
	// fail with the shutdown error, checkpointing on the way down), let the
	// HTTP server finish writing those error responses, then wait for the
	// runner goroutines' final checkpoints and trace flushes.
	s.beginShutdown()
	cancelJobs()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if err := s.drainJobs(shutdownCtx); err != nil {
		logger.Warn("shutdown drain timed out", "err", err)
	}
	fmt.Fprintln(os.Stderr, "coldd: shut down")
	return nil
}
