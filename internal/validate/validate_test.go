package validate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/stats"
	"github.com/networksynth/cold/internal/zoo"
)

// testColdConfig keeps generation sub-second: tiny GA, small n.
func testColdConfig(parallelism int) cold.Config {
	return cold.Config{
		NumPoPs:     8,
		Seed:        1,
		Parallelism: parallelism,
		Optimizer:   cold.OptimizerSpec{PopulationSize: 12, Generations: 6},
	}
}

func testZooGraphs(n int) []*graph.Graph {
	return zoo.Graphs(zoo.Ensemble(n, rand.New(rand.NewSource(zoo.DefaultSeed))))
}

// runAll characterizes a cold ensemble and a zoo reference and scores them,
// returning the record bytes and the scorecard bytes.
func runAll(t *testing.T, parallelism int) ([]byte, []byte) {
	t.Helper()
	var records bytes.Buffer
	subject, err := Run(context.Background(), ColdSource(testColdConfig(parallelism), 8), &records)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(context.Background(), GraphsSource("zoo", testZooGraphs(30)), &records)
	if err != nil {
		t.Fatal(err)
	}
	sc := Score(subject, ref, ScoreOptions{Bootstrap: 200, Seed: 42})
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return records.Bytes(), b
}

// TestPipelineDeterministicAcrossParallelism is the determinism pin:
// identical seed ⇒ byte-identical JSONL records and scorecard whether
// ColdSource generates at Parallelism 1 or 8. Run under -race (make race)
// this also pins that the engine's workers neither reorder nor race the
// aggregates the pipeline folds inside their emits.
func TestPipelineDeterministicAcrossParallelism(t *testing.T) {
	rec1, sc1 := runAll(t, 1)
	rec8, sc8 := runAll(t, 8)
	if !bytes.Equal(rec1, rec8) {
		t.Errorf("JSONL records differ between Parallelism 1 and 8:\nP1 %d bytes, P8 %d bytes", len(rec1), len(rec8))
	}
	if !bytes.Equal(sc1, sc8) {
		t.Errorf("scorecards differ between Parallelism 1 and 8:\n%s\n---\n%s", sc1, sc8)
	}
	if n := bytes.Count(rec1, []byte("\n")); n != 8+30 {
		t.Errorf("record count = %d, want %d", n, 8+30)
	}
}

// TestRecordOrderAndSchema checks records come out in replica order with
// the fixed schema version and source label.
func TestRecordOrderAndSchema(t *testing.T) {
	var buf bytes.Buffer
	_, err := Run(context.Background(), GraphsSource("zoo", testZooGraphs(20)), &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 20 {
		t.Fatalf("got %d records, want 20", len(lines))
	}
	for i, line := range lines {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.V != RecordSchemaVersion {
			t.Errorf("record %d: v = %d, want %d", i, rec.V, RecordSchemaVersion)
		}
		if rec.Replica != i {
			t.Errorf("record %d: replica = %d (out of order)", i, rec.Replica)
		}
		if rec.Source != "zoo" {
			t.Errorf("record %d: source = %q", i, rec.Source)
		}
		if !math.IsNaN(float64(rec.Cost)) {
			t.Errorf("record %d: reference cost = %v, want NaN (null)", i, rec.Cost)
		}
	}
}

// TestWindowBoundsInFlight pins the inline contract behind the pipeline's
// bounded memory: each topology is characterized, folded and written
// inside the source's emit, so when the source emits topology i exactly i
// records have been written — for the parallel COLD engine as for an
// in-memory list.
func TestWindowBoundsInFlight(t *testing.T) {
	for _, src := range []Source{ColdSource(testColdConfig(4), 8), GraphsSource("zoo", testZooGraphs(60))} {
		var written lineCounter
		generate := src.Generate
		src.Generate = func(ctx context.Context, emit func(i int, g *graph.Graph, cost float64) error) error {
			return generate(ctx, func(i int, g *graph.Graph, cost float64) error {
				if int(written) != i {
					t.Errorf("%s: topology %d emitted after %d records", src.Name, i, written)
				}
				return emit(i, g, cost)
			})
		}
		ens, err := Run(context.Background(), src, &written)
		if err != nil {
			t.Fatal(err)
		}
		if ens.Count != src.Count || int(written) != src.Count {
			t.Errorf("%s: folded %d and wrote %d topologies, want %d", src.Name, ens.Count, written, src.Count)
		}
	}
}

// lineCounter counts the records written to it.
type lineCounter int

func (c *lineCounter) Write(p []byte) (int, error) {
	*c += lineCounter(bytes.Count(p, []byte("\n")))
	return len(p), nil
}

// TestWelfordMatchesBatch checks the streaming moments against the batch
// formulas on the same data.
func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 17
		w.Add(xs[i])
	}
	if got, want := w.Mean(), stats.Mean(xs); math.Abs(got-want) > 1e-9 {
		t.Errorf("Welford mean %v, batch %v", got, want)
	}
	if got, want := w.Variance(), stats.Variance(xs); math.Abs(got-want) > 1e-9 {
		t.Errorf("Welford variance %v, batch %v", got, want)
	}
	var empty Welford
	if !math.IsNaN(empty.Mean()) || !math.IsNaN(empty.Variance()) {
		t.Error("empty Welford should report NaN moments")
	}
}

// TestSelfScorecardPasses is the smoke invariant `coldbench validate`
// asserts on every run: an ensemble scored against itself has zero
// distances, zero KS, full CI overlap, and passes the default thresholds.
func TestSelfScorecardPasses(t *testing.T) {
	ens, err := Run(context.Background(), GraphsSource("zoo", testZooGraphs(40)), nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := Score(ens, ens, ScoreOptions{Bootstrap: 200, Seed: 7})
	if !sc.Pass {
		b, _ := json.MarshalIndent(sc, "", "  ")
		t.Fatalf("self-comparison failed the scorecard:\n%s", b)
	}
	if float64(sc.Dist1K) != 0 || float64(sc.Dist2K) != 0 {
		t.Errorf("self distances = %v, %v, want 0, 0", sc.Dist1K, sc.Dist2K)
	}
	if float64(sc.OverlapFrac) != 1 {
		t.Errorf("self overlap fraction = %v, want 1", sc.OverlapFrac)
	}
	for _, m := range sc.Metrics {
		if m.Scored && float64(m.KS) != 0 {
			t.Errorf("metric %s: self KS = %v, want 0", m.Name, m.KS)
		}
	}
}

// TestDegenerateGraphsFlowThrough feeds the pipeline trivial and
// disconnected graphs: no panic, no JSON error (NaN → null), diameter -1
// and other non-finite samples excluded from aggregates.
func TestDegenerateGraphsFlowThrough(t *testing.T) {
	gs := []*graph.Graph{
		graph.New(0),
		graph.New(1),
		graph.New(2),
		graph.New(5),
	}
	two := graph.New(2)
	two.AddEdge(0, 1)
	gs = append(gs, two)
	disc := graph.New(4)
	disc.AddEdge(0, 1)
	disc.AddEdge(2, 3)
	gs = append(gs, disc)

	var buf bytes.Buffer
	ens, err := Run(context.Background(), GraphsSource("degenerate", gs), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if ens.Count != len(gs) {
		t.Fatalf("folded %d, want %d", ens.Count, len(gs))
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Error("records leaked a bare NaN into JSON")
	}
	// Only "two" and "disc"... only `two` (single edge, connected) and none
	// of the disconnected graphs have a defined diameter; disc's is -1.
	mean, _, finite, skipped, ok := ens.Metric("diameter")
	if !ok {
		t.Fatal("diameter metric missing")
	}
	// Connected with n>=2: only the single-edge graph (diameter 1). The
	// n<=1 graphs report diameter 0 (defined), so finite = 3.
	if finite != 3 || skipped != 3 {
		t.Errorf("diameter finite/skipped = %d/%d, want 3/3", finite, skipped)
	}
	if math.Abs(mean-1.0/3) > 1e-12 {
		t.Errorf("diameter mean = %v, want 1/3", mean)
	}
}

// TestEmitErrorPropagates checks a failing record writer aborts the run.
func TestEmitErrorPropagates(t *testing.T) {
	w := &failWriter{failAt: 5}
	_, err := Run(context.Background(), GraphsSource("zoo", testZooGraphs(30)), w)
	if err == nil || !strings.Contains(err.Error(), "write record") {
		t.Fatalf("want write error, got %v", err)
	}
}

type failWriter struct {
	writes int
	failAt int
}

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes >= w.failAt {
		return 0, errors.New("sink full")
	}
	return len(p), nil
}

// TestContextCancelStopsRun checks cancellation unblocks the pipeline.
func TestContextCancelStopsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, GraphsSource("zoo", testZooGraphs(30)), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestFloatJSONRoundTrip pins the NaN ↔ null encoding.
func TestFloatJSONRoundTrip(t *testing.T) {
	b, err := json.Marshal([]Float{1.5, Float(math.NaN()), Float(math.Inf(1))})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(b), "[1.5,null,null]"; got != want {
		t.Fatalf("encoded %s, want %s", got, want)
	}
	var back []Float
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back[0] != 1.5 || !math.IsNaN(float64(back[1])) || !math.IsNaN(float64(back[2])) {
		t.Fatalf("round trip = %v", back)
	}
}
