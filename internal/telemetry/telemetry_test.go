package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var nilC *Counter
	nilC.Inc() // must not panic
	nilC.Add(7)
	if nilC.Load() != 0 {
		t.Fatal("nil counter must load 0")
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Add(-2)
	if got := g.Load(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	var nilG *Gauge
	nilG.Set(1)
	nilG.Add(1)
	if nilG.Load() != 0 {
		t.Fatal("nil gauge must load 0")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{10, 100, 1000})
	for _, v := range []float64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 0, 1} // <=10: {1,10}; <=100: {11,100}; <=1000: none; +Inf: {5000}
	if len(s.Counts) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(s.Counts), len(want))
	}
	for i := range want {
		if s.Counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], want[i], s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 1+10+11+100+5000 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestHistogramNilAndEmpty(t *testing.T) {
	var h *Histogram
	h.Observe(1) // no-op
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatal("nil histogram snapshot must be zero")
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {5, 5}, {5, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v: want panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != workers*per {
		t.Fatalf("bucket total = %d, want %d", total, workers*per)
	}
	wantSum := float64(workers*per) * float64(workers*per-1) / 2
	if s.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestDurationBucketsCoverUsefulRange(t *testing.T) {
	b := DurationBuckets()
	if len(b) < 8 {
		t.Fatalf("only %d duration buckets", len(b))
	}
	if b[0] > 1e3 || b[len(b)-1] < 1e9 {
		t.Fatalf("duration buckets %v do not span 1µs..1s", b)
	}
}

func TestSpan(t *testing.T) {
	var zero Span
	if zero.Running() || zero.ElapsedNs() != 0 {
		t.Fatal("zero span must be inert")
	}
	s := StartSpan()
	if !s.Running() {
		t.Fatal("started span must be running")
	}
	time.Sleep(time.Millisecond)
	if s.ElapsedNs() <= 0 {
		t.Fatalf("elapsed = %d, want > 0", s.ElapsedNs())
	}
}

func TestJSONLRecorder(t *testing.T) {
	var buf bytes.Buffer
	r := NewJSONL(&buf)
	r.Record("run_start", RunStart{Replicas: 4, Workers: 2, NumPoPs: 10, Pop: 24, Gens: 20})
	r.Record("generation", Generation{Replica: 1, Gen: 3, Best: 12.5, Mean: 15, Worst: 20, Diversity: 2.25, EliteSurvived: 2, BreedNs: 100, EvalNs: 200, Evals: 96})
	r.Record("empty", struct{}{})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q not valid JSON: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3", len(lines))
	}
	for i, m := range lines {
		if m["v"] != float64(SchemaVersion) {
			t.Fatalf("line %d: v = %v, want %d", i, m["v"], SchemaVersion)
		}
	}
	if lines[0]["event"] != "run_start" || lines[0]["replicas"] != float64(4) {
		t.Fatalf("run_start malformed: %v", lines[0])
	}
	if lines[1]["event"] != "generation" || lines[1]["elite_survived"] != float64(2) {
		t.Fatalf("generation malformed: %v", lines[1])
	}
	if lines[2]["event"] != "empty" {
		t.Fatalf("empty payload malformed: %v", lines[2])
	}
}

// errWriter fails after the first write.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("sink broke")
	}
	return len(p), nil
}

func TestJSONLRecorderRetainsFirstError(t *testing.T) {
	r := NewJSONL(&errWriter{})
	r.Record("a", struct{}{})
	r.Record("b", struct{}{})
	r.Record("c", struct{}{})
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "sink broke") {
		t.Fatalf("err = %v, want the sink error", err)
	}
}

func TestJSONLRecorderConcurrent(t *testing.T) {
	var buf bytes.Buffer
	r := NewJSONL(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Record("replica_start", ReplicaStart{Replica: w*50 + i, Worker: w})
			}
		}(w)
	}
	wg.Wait()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	count := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("interleaved write corrupted a line: %v", err)
		}
		count++
	}
	if count != 400 {
		t.Fatalf("%d lines, want 400", count)
	}
}

func TestSanitizeFloat(t *testing.T) {
	cases := map[float64]float64{
		1.5:              1.5,
		math.Inf(1):      math.MaxFloat64,
		math.Inf(-1):     -math.MaxFloat64,
		0:                0,
		-math.MaxFloat64: -math.MaxFloat64,
	}
	for in, want := range cases {
		if got := SanitizeFloat(in); got != want {
			t.Fatalf("SanitizeFloat(%v) = %v, want %v", in, got, want)
		}
	}
	if got := SanitizeFloat(math.NaN()); got != 0 {
		t.Fatalf("SanitizeFloat(NaN) = %v, want 0", got)
	}
}

// TestFile: Finish flushes what the recorder buffered and closes the file;
// a recorder error comes back first and leaves the file unflushed.
func TestFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	w, finish, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewJSONL(w)
	rec.Record("run_start", RunStart{Replicas: 1})
	if err := finish(rec.Err()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(`{"v":`)) || !bytes.HasSuffix(data, []byte("}\n")) {
		t.Fatalf("trace file holds %q, want one flushed event line", data)
	}

	w, finish, err = CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteString("buffered") //nolint:errcheck // bufio only buffers here
	recErr := errors.New("sink failed")
	if err := finish(recErr); !errors.Is(err, recErr) {
		t.Fatalf("Finish = %v, want the recorder's error", err)
	}
	if data, _ := os.ReadFile(path); len(data) != 0 {
		t.Fatalf("file after a recorder error holds %q, want nothing flushed", data)
	}
	if _, _, err := CreateFile(filepath.Join(t.TempDir(), "missing", "trace.jsonl")); err == nil {
		t.Fatal("CreateFile in a missing directory must fail")
	}
}
