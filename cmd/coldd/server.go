package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/store"
	"github.com/networksynth/cold/internal/telemetry"
)

// artifactVersion versions the stored artifact encoding (JSONL of compact
// network JSON, one per replica, in replica order). It is part of every
// cache key alongside cold.ConfigSchemaVersion (inside Config.Hash), so
// changing either encoding can never serve stale bytes.
const artifactVersion = 1

// artifactKey is the content address of one request's output: the
// canonical config hash, the ensemble size, and the artifact schema
// version. Determinism makes this a pure function of the response bytes.
func artifactKey(hash string, count int) string {
	return fmt.Sprintf("%s-c%d-a%d", hash, count, artifactVersion)
}

// serverOptions configure a coldd server.
type serverOptions struct {
	store      *store.Store
	base       context.Context // cancels all in-flight generation on shutdown
	jobs       int             // concurrent generations
	queueDepth int             // further admitted jobs waiting for a slot
	parallel   int             // worker goroutines per generation (0 = all CPUs)
	maxCount   int             // per-request ensemble size bound
	maxPoPs    int             // per-request NumPoPs bound
	logger     *slog.Logger    // structured request/job log (nil = discard)
	traceDir   string          // per-job JSONL trace directory ("" = no traces)

	// checkpointEvery persists a job's in-order line buffer as a partial
	// store artifact after every this-many replicas (and once more on a
	// cancelled job's way down), so a daemon restart resumes generation at
	// the checkpoint instead of starting over. 0 disables checkpointing
	// (and resume probing) entirely.
	checkpointEvery int
}

// server is the coldd HTTP daemon: a bounded job queue feeding the cold
// generation engine, fronted by a content-addressed artifact cache and
// single-flight collapsing of identical concurrent requests.
type server struct {
	opts  serverOptions
	store *store.Store
	tel   *cold.Telemetry
	q     *queue
	base  context.Context
	log   *slog.Logger
	reg   *telemetry.Registry // the GET /metrics surface

	mu   sync.Mutex
	jobs map[string]*job

	// draining is set by beginShutdown before the base context is
	// cancelled, tagging job failures on the way down as shutdown-caused
	// (errShutdown → the documented 503) rather than generic errors.
	// runners tracks live run goroutines so drainJobs can wait for their
	// final checkpoints and trace flushes.
	draining atomic.Bool
	runners  sync.WaitGroup

	requests    telemetry.Counter
	badRequests telemetry.Counter
	cacheHits   telemetry.Counter // served straight from the artifact store
	cacheMisses telemetry.Counter // jobs started (generator invoked or queued)
	sfShared    telemetry.Counter // requests collapsed onto an in-flight job
	generations telemetry.Counter // jobs that actually entered the generator
	queueFull   telemetry.Counter
	canceled    telemetry.Counter

	ckptWrites          telemetry.Counter // checkpoints persisted to the store
	ckptResumes         telemetry.Counter // jobs that resumed from a checkpoint
	ckptResumedReplicas telemetry.Counter // replicas restored instead of regenerated

	reqDur    *telemetry.HistogramVec // request wall time by route/status
	respBytes *telemetry.Histogram    // response body sizes
	queueWait *telemetry.Histogram    // successful slot waits
	storeGet  *telemetry.Histogram    // artifact store Get latency
	storePut  *telemetry.Histogram    // artifact store Put latency
}

func newServer(opts serverOptions) *server {
	if opts.base == nil {
		opts.base = context.Background()
	}
	if opts.maxCount <= 0 {
		opts.maxCount = 256
	}
	if opts.logger == nil {
		opts.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &server{
		opts:  opts,
		store: opts.store,
		tel:   cold.NewTelemetry(),
		q:     newQueue(opts.jobs, opts.queueDepth),
		base:  opts.base,
		log:   opts.logger,
		reg:   telemetry.NewRegistry(),
		jobs:  make(map[string]*job),

		reqDur:    telemetry.NewHistogramVec(telemetry.DurationBuckets(), "route", "status"),
		respBytes: telemetry.NewHistogram(sizeBuckets()),
		queueWait: telemetry.NewHistogram(telemetry.DurationBuckets()),
		storeGet:  telemetry.NewHistogram(telemetry.DurationBuckets()),
		storePut:  telemetry.NewHistogram(telemetry.DurationBuckets()),
	}
	s.q.waitHist = s.queueWait
	s.store.SetLatencyHistograms(s.storeGet, s.storePut)
	s.registerMetrics(s.reg)
	return s
}

// lookup resolves one request to either cached artifact bytes or a job to
// tail: store hit → (data, nil); in-flight identical request → join it;
// otherwise admit the queue and start a new job carrying the requester's
// ID (its correlation handle in logs and trace files). The queue-full
// check is synchronous, so a rejected request never creates a job.
func (s *server) lookup(cfg cold.Config, count int, key, reqID string) (data []byte, j *job, err error) {
	if data, err := s.store.Get(key); err == nil {
		s.cacheHits.Inc()
		return data, nil, nil
	} else if !errors.Is(err, store.ErrNotFound) {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[key]; ok && j.tryJoin() {
		s.sfShared.Inc()
		return nil, j, nil
	}
	// No live job (any mapped one is being torn down after losing its last
	// requester — replace it; its runner only detaches itself). Admission
	// before job creation keeps 429 synchronous.
	if err := s.q.admit(); err != nil {
		s.queueFull.Inc()
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(s.base)
	nj := newJob(key, count, reqID, cancel)
	s.jobs[key] = nj
	s.cacheMisses.Inc()
	s.log.Info("job queued", "job_id", nj.id, "key", key, "count", count)
	s.runners.Add(1)
	go s.run(ctx, nj, cfg, count)
	return nil, nj, nil
}

// errShutdown tags job failures caused by the daemon draining; the
// handler maps it to the documented 503 so clients can distinguish "try
// another instance" from a real generation error.
var errShutdown = errors.New("coldd: shutting down")

// beginShutdown marks the drain. Call it BEFORE cancelling the jobs' base
// context: the flag is what lets run distinguish a shutdown-caused
// cancellation (mapped to errShutdown/503, checkpointed on the way down)
// from a client abandoning its job.
func (s *server) beginShutdown() { s.draining.Store(true) }

// drainJobs blocks until every run goroutine has finished — final
// checkpoints persisted, trace files flushed — or ctx expires.
func (s *server) drainJobs(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.runners.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jobErr tags cancellation errors that were caused by the drain.
func (s *server) jobErr(err error) error {
	if s.draining.Load() && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return fmt.Errorf("%w (%v)", errShutdown, err)
	}
	return err
}

// run executes one generation job: wait for a queue slot, resume from the
// newest valid checkpoint if one exists, stream replicas into the job
// buffer in replica order, checkpoint the buffer every
// opts.checkpointEvery replicas (and on a cancelled job's way down), and
// on completion promote the artifact to its final key and delete the
// checkpoint. With -trace-dir set, the generation writes a JSONL trace to
// <dir>/<job_id>.jsonl, its run_start/run_end stamped with the job ID
// (Config.RunID) so log lines and trace files cross-reference.
func (s *server) run(ctx context.Context, j *job, cfg cold.Config, count int) {
	defer s.runners.Done()
	defer s.detach(j)
	defer s.q.leave()
	queued := time.Now()
	if err := s.q.wait(ctx); err != nil {
		s.canceled.Inc()
		s.log.Info("job canceled while queued", "job_id", j.id, "queue_wait", time.Since(queued))
		j.finish(s.jobErr(err))
		return
	}
	defer s.q.release()
	s.generations.Inc()
	wait := time.Since(queued)
	s.log.Info("job started", "job_id", j.id, "key", j.key, "queue_wait", wait)
	start := time.Now()

	// The request's parallelism/progress/telemetry are service concerns:
	// results are bit-identical across all of them, and the canonical hash
	// excludes them, so the server always substitutes its own.
	cfg.Parallelism = s.opts.parallel
	cfg.Progress = nil
	cfg.Telemetry, cfg.RunID = s.jobTelemetry(j)

	// Resume: replay the newest valid checkpoint's lines into the tail
	// buffer (clients see them immediately — determinism makes the replay
	// byte-identical to regeneration) and restart generation at replica
	// `from`. A checkpoint can never cover the whole ensemble (complete
	// runs are promoted and their partials deleted), but guard anyway.
	from := 0
	if s.opts.checkpointEvery > 0 {
		if data, lines, err := s.store.NewestPartial(j.key); err == nil && lines < count {
			j.prefill(data, lines)
			from = lines
			s.ckptResumes.Inc()
			s.ckptResumedReplicas.Add(uint64(lines))
			s.log.Info("job resumed", "job_id", j.id, "key", j.key, "resumed_from", lines)
		}
	}

	lastCkpt := from
	checkpoint := func() {
		data, lines := j.progress()
		if lines <= lastCkpt || lines >= count {
			return // nothing new, or the full artifact (promotion handles it)
		}
		if perr := s.store.PutPartial(j.key, lines, data); perr != nil {
			// Checkpointing is best-effort insurance; generation goes on.
			s.log.Warn("job checkpoint failed", "job_id", j.id, "key", j.key, "err", perr)
			return
		}
		lastCkpt = lines
		s.ckptWrites.Inc()
		cfg.Telemetry.RecordCheckpoint(cfg.RunID, lines, from, len(data))
		s.log.Debug("job checkpoint", "job_id", j.id, "key", j.key, "replicas", lines, "bytes", len(data))
	}

	err := cold.GenerateEnsembleStreamFrom(ctx, cfg, count, from, func(i int, nw *cold.Network) error {
		line, err := json.Marshal(nw)
		if err != nil {
			return err
		}
		j.append(append(line, '\n'))
		if every := s.opts.checkpointEvery; every > 0 && i+1-lastCkpt >= every {
			checkpoint()
		}
		return nil
	})
	if err != nil && s.opts.checkpointEvery > 0 {
		// One last checkpoint on the way down (shutdown drain, abandoned
		// job) so a restart resumes here instead of regenerating.
		checkpoint()
	}
	if flush := j.flushTrace; flush != nil {
		if terr := flush(); terr != nil {
			s.log.Warn("job trace", "job_id", j.id, "err", terr)
		}
	}
	if err != nil {
		err = s.jobErr(err)
		outcome := "error"
		switch {
		case errors.Is(err, errShutdown):
			s.canceled.Inc()
			outcome = "shutdown"
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			s.canceled.Inc()
			outcome = "canceled"
		}
		s.log.Info("job finished", "job_id", j.id, "outcome", outcome, "dur", time.Since(start),
			"resumed_from", from, "err", err)
		j.finish(err)
		return
	}
	data, _, _, _ := j.snapshot(0)
	if perr := s.store.Put(j.key, data); perr != nil {
		// A cache write failure degrades future requests to regeneration;
		// this one still has its bytes.
		s.log.Warn("job artifact not cached", "job_id", j.id, "key", j.key, "err", perr)
	} else if s.opts.checkpointEvery > 0 {
		if derr := s.store.DeletePartials(j.key); derr != nil {
			s.log.Warn("job checkpoint cleanup", "job_id", j.id, "key", j.key, "err", derr)
		}
	}
	s.log.Info("job finished", "job_id", j.id, "outcome", "ok", "dur", time.Since(start),
		"replicas", count, "resumed_from", from, "bytes", len(data))
	j.finish(nil)
}

// jobTelemetry returns the telemetry handle and run ID for one job. With
// no trace directory it is the shared service handle; with one, a derived
// handle writing the job's own trace file (metrics still aggregate
// service-wide). Trace-file failures degrade to the shared handle — a
// full disk must not fail generations.
func (s *server) jobTelemetry(j *job) (*cold.Telemetry, string) {
	if s.opts.traceDir == "" {
		return s.tel, j.id
	}
	path := filepath.Join(s.opts.traceDir, j.id+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		s.log.Warn("job trace", "job_id", j.id, "err", err)
		return s.tel, j.id
	}
	bw := bufio.NewWriter(f)
	tel := s.tel.WithTrace(bw)
	j.flushTrace = func() error {
		if err := tel.TraceErr(); err != nil {
			f.Close() //nolint:errcheck
			return err
		}
		if err := bw.Flush(); err != nil {
			f.Close() //nolint:errcheck
			return err
		}
		return f.Close()
	}
	return tel, j.id
}

// detach removes a finished (or replaced) job from the index.
func (s *server) detach(j *job) {
	s.mu.Lock()
	if s.jobs[j.key] == j {
		delete(s.jobs, j.key)
	}
	s.mu.Unlock()
}
