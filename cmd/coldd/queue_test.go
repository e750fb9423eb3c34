package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestQueueWaitCanceledAccounting is the regression test for canceled
// slot waits polluting the average queue wait: a wait abandoned via
// context cancellation must leave cold_queue_wait_seconds_{sum,count}
// untouched.
func TestQueueWaitCanceledAccounting(t *testing.T) {
	s, _ := newTestServer(t, serverOptions{jobs: 1, queueDepth: 4})
	q := s.q
	waits := func() (sum, count float64) {
		m := serverMetrics(t, s)
		return m["cold_queue_wait_seconds_sum"], m["cold_queue_wait_seconds_count"]
	}

	// Occupy the single slot so the next wait has to block.
	if err := q.admit(); err != nil {
		t.Fatalf("admit: %v", err)
	}
	if err := q.wait(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}
	baseSum, n := waits()
	if n != 1 {
		t.Fatalf("after first wait: count=%v, want 1", n)
	}

	// A second waiter gives up after a measurable delay; its wait time
	// must not leak into the histogram.
	if err := q.admit(); err != nil {
		t.Fatalf("admit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := q.wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait on full queue: err=%v, want deadline exceeded", err)
	}
	q.leave()
	if sum, n := waits(); n != 1 || sum != baseSum {
		t.Fatalf("canceled wait leaked into cold_queue_wait_seconds: count=%v sum=%v, want 1 and %v", n, sum, baseSum)
	}

	// Releasing the slot lets a third waiter through; it is observed.
	q.release()
	q.leave()
	if err := q.admit(); err != nil {
		t.Fatalf("admit: %v", err)
	}
	if err := q.wait(context.Background()); err != nil {
		t.Fatalf("wait after release: %v", err)
	}
	q.release()
	q.leave()
	if _, n := waits(); n != 2 {
		t.Fatalf("final count=%v, want 2", n)
	}
}
