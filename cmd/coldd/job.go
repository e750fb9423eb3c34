package main

import (
	"context"
	"sync"
)

// job is one in-flight generation, shared by every request that asked for
// the same cache key (single-flight): the first request starts the job,
// identical concurrent requests tail the same grow-only artifact buffer,
// and the job's context stays alive while anyone is still interested —
// refcounted, so cancelling the last interested request cancels the
// generation and frees its queue slot.
//
// The buffer holds the artifact bytes exactly as they will be stored:
// one compact network JSON per line, in replica order. Appends are
// whole lines, so every chunk a reader takes from the buffer is whole
// lines too. A store hit is served as a job that is already done and
// holds the stored artifact (server.lookup).
type job struct {
	key    string
	id     string // correlation ID: the starting request's ID, also the trace file name
	cancel context.CancelFunc

	// finishTrace flushes and closes the job's JSONL trace file, when one
	// was opened. Set and called only by the runner goroutine (server.run).
	finishTrace func(recErr error) error

	mu     sync.Mutex
	buf    []byte
	lines  int
	done   bool
	err    error
	refs   int
	notify chan struct{} // closed and replaced on every state change
}

func newJob(key, id string, cancel context.CancelFunc) *job {
	return &job{key: key, id: id, cancel: cancel, refs: 1, notify: make(chan struct{})}
}

// wake closes the current notify channel, releasing every tailing reader.
// Callers hold j.mu.
func (j *job) wake() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// append adds data, which holds exactly lines complete artifact lines
// (network JSON + '\n' each): one generated replica, or a resumed
// checkpoint's prefix.
func (j *job) append(data []byte, lines int) {
	j.mu.Lock()
	j.buf = append(j.buf, data...)
	j.lines += lines
	j.wake()
	j.mu.Unlock()
}

// progress returns the artifact bytes and complete-line count accumulated
// so far. The returned slice aliases the grow-only buffer: safe to read
// concurrently with appends (they extend, never mutate, emitted bytes).
func (j *job) progress() ([]byte, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.buf[:len(j.buf):len(j.buf)], j.lines
}

// finish marks the job done (err nil on success) and wakes all readers.
func (j *job) finish(err error) {
	j.mu.Lock()
	j.done = true
	j.err = err
	j.wake()
	j.mu.Unlock()
}

// snapshot returns the bytes appended since off, the completion state, and
// a channel that is closed on the next state change (for readers to block
// on alongside their own cancellation).
func (j *job) snapshot(off int) (chunk []byte, done bool, err error, next <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if off < len(j.buf) {
		chunk = j.buf[off:]
	}
	return chunk, j.done, j.err, j.notify
}

// tryJoin registers another interested request. It reports false when the
// job lost its last requester and is being torn down (its context is
// already canceled, so a new requester must not board it).
func (j *job) tryJoin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.refs == 0 && !j.done {
		return false
	}
	j.refs++
	return true
}

// leave drops one interested request; when the last one leaves before the
// job is done, the generation is canceled (freeing its queue slot).
func (j *job) leave() {
	j.mu.Lock()
	j.refs--
	abandon := j.refs == 0 && !j.done
	j.mu.Unlock()
	if abandon {
		j.cancel()
	}
}
