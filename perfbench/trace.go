package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program. It
// keeps them in memory and writes them out when the run ends, so tracing
// costs no I/O while the workload runs. A nil tracer records nothing: the
// plain phase calls the same code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Parent is the ID of the span that caused it
// (0 for a root), so self time is a span's duration minus its children's.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	DurNs   int64  `json:"dur_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID and the function that closes it.
func (t *tracer) begin(name string, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: start.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id, func() {
		d := time.Since(start).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].DurNs = d
		t.mu.Unlock()
	}
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary prints, per span name, the call count, total time and self time.
func (t *tracer) summary(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.DurNs
	}
	type agg struct {
		calls       int
		total, self int64
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.calls++
		a.total += s.DurNs
		a.self += s.DurNs - child[s.ID]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "  %-40s calls %7d  total %10.1f ms  self %10.1f ms\n",
			n, a.calls, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
