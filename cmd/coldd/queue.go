package main

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/networksynth/cold/internal/telemetry"
)

// errQueueFull is returned by admit when the job queue's waiting room is
// exhausted; the handler maps it to 429 Too Many Requests.
var errQueueFull = errors.New("coldd: job queue full")

// queue is the bounded job queue in front of the generation worker pool:
// at most `slots` generations run concurrently (each fanning replicas out
// across the engine's own workers), and at most `waiting` further admitted
// jobs may wait for a slot. Admission is synchronous and non-blocking —
// the handler learns "queue full" before a job exists — while the slot
// wait is cancellable, so an abandoned request frees its queue position
// immediately.
type queue struct {
	slots chan struct{} // buffered; one token per running generation
	limit int           // admitted (running + waiting) bound

	mu       sync.Mutex
	admitted int

	// waitHist, when set, observes successful slot waits in nanoseconds
	// (the cold_queue_wait_seconds metric). Canceled waits are not
	// observed: an abandoned request's wait measures the client's
	// patience, not the queue. Wiring-time only.
	waitHist *telemetry.Histogram
}

// newQueue makes a queue running at most concurrent jobs with at most
// depth further jobs waiting.
func newQueue(concurrent, depth int) *queue {
	return &queue{
		slots: make(chan struct{}, max(concurrent, 1)),
		limit: max(concurrent, 1) + max(depth, 0),
	}
}

// admit reserves a queue position, or reports errQueueFull. Every
// successful admit must be paired with exactly one leave.
func (q *queue) admit() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.admitted >= q.limit {
		return errQueueFull
	}
	q.admitted++
	return nil
}

// wait blocks until a generation slot is free or ctx is done. On success
// the caller owns a slot and must call release; only successful waits are
// observed, so the average queue wait reflects requests that actually ran.
func (q *queue) wait(ctx context.Context) error {
	start := time.Now()
	select {
	case q.slots <- struct{}{}:
		q.waitHist.Observe(float64(time.Since(start)))
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release frees a slot taken by wait.
func (q *queue) release() { <-q.slots }

// leave gives back an admit reservation (after the job finished, failed,
// or was canceled while waiting).
func (q *queue) leave() {
	q.mu.Lock()
	q.admitted--
	q.mu.Unlock()
}

// depth returns the currently admitted job count (running + waiting).
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.admitted
}
