// Package validate is the ensemble-scale validation pipeline: it streams
// topologies from a source (COLD's generator, the zoo stand-in, random-graph
// baselines), characterizes each one in parallel metric workers, emits one
// machine-readable JSONL record per topology, and maintains online
// aggregates — Welford mean/variance per scalar metric, pooled 1K/2K
// distributions, finite-sample vectors for bootstrap confidence intervals —
// with bounded memory: no graph is retained past its characterization, and
// at most window(Parallelism) topologies are in flight between generation
// and aggregation.
//
// On top of the per-family Ensemble aggregates, Score builds the COLD
// scorecard: "does the generated ensemble match the target family?" —
// bootstrap CIs and KS statistics per metric, total-variation distances
// between pooled 1K/2K distributions, and a pass verdict under explicit
// thresholds. Everything is deterministic: records and scorecards are
// byte-identical for every Parallelism setting.
package validate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"

	"github.com/networksynth/cold/internal/graph"
)

// Source yields the topologies of one family in index order.
type Source struct {
	// Name labels every record of the family (e.g. "cold", "zoo", "er").
	Name string

	// Count is the number of topologies the source will emit.
	Count int

	// Generate streams the topologies: it must call emit exactly once per
	// index, in order 0..Count-1, from a single goroutine, and stop when
	// emit returns an error. Emitted graphs are owned by the pipeline
	// until their characterization completes; the source must not mutate
	// them after emitting. cost is the synthesis objective total, or NaN
	// for families that have none.
	Generate func(ctx context.Context, emit func(i int, g *graph.Graph, cost float64) error) error
}

// Options configures a pipeline run.
type Options struct {
	// Parallelism is the number of metric workers. Zero means
	// runtime.GOMAXPROCS(0); 1 runs fully serial. Results are
	// byte-identical for every setting.
	Parallelism int

	// Records, when non-nil, receives one JSON record per topology, each
	// terminated by '\n', in index order.
	Records io.Writer
}

func (o Options) normalize() Options {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// window bounds how many topologies may be past generation but not yet
// folded into the aggregates (the reorder buffer between the out-of-order
// workers and the in-order collector): 4×parallelism, minimum 8.
// Generation backpressures when the window is full, so pipeline memory is
// O(window), independent of the source's Count.
func window(parallelism int) int { return max(8, 4*parallelism) }

// Run streams src through the metric workers and returns the family's
// aggregates. Records (if Options.Records is set) are written in index
// order and are byte-identical for every Options.Parallelism.
func Run(ctx context.Context, src Source, opts Options) (*Ensemble, error) {
	opts = opts.normalize()
	if src.Count < 0 {
		return nil, fmt.Errorf("validate: negative source count %d", src.Count)
	}
	ens := newEnsemble(src.Name)
	if src.Count == 0 {
		return ens, nil
	}

	workers := min(opts.Parallelism, src.Count)
	if workers <= 1 {
		// Serial: characterize inline in the generation goroutine.
		inFlight := 0
		err := src.Generate(ctx, func(i int, g *graph.Graph, cost float64) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			inFlight++
			if inFlight > ens.PeakInFlight {
				ens.PeakInFlight = inFlight
			}
			rec, d1, d2 := Characterize(src.Name, i, g, cost)
			c := &characterization{rec: rec, d1: d1, d2: d2}
			if err := foldAndWrite(ens, c, opts.Records); err != nil {
				return err
			}
			inFlight--
			return nil
		})
		return ens, err
	}

	// Parallel: the generation goroutine feeds jobs through a window
	// semaphore; workers characterize out of order and park results in
	// pending; whichever worker completes the next-in-order index flushes
	// the in-order prefix into the aggregates (same reorder discipline as
	// cold.GenerateEnsembleStream). Slots release only at fold time, so
	// graphs-in-worker + parked characterizations never exceed the window.
	type job struct {
		i    int
		g    *graph.Graph
		cost float64
	}
	pool, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     int
		inFlight int
		foldErr  error
	)
	pending := make([]*characterization, src.Count)
	jobs := make(chan job)
	slots := make(chan struct{}, window(opts.Parallelism))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				rec, d1, d2 := Characterize(src.Name, jb.i, jb.g, jb.cost)
				mu.Lock()
				pending[jb.i] = &characterization{rec: rec, d1: d1, d2: d2}
				for foldErr == nil && next < src.Count && pending[next] != nil {
					if err := foldAndWrite(ens, pending[next], opts.Records); err != nil {
						foldErr = err
						cancel()
						break
					}
					pending[next] = nil
					next++
					inFlight--
					<-slots
				}
				mu.Unlock()
			}
		}()
	}

	genErr := src.Generate(pool, func(i int, g *graph.Graph, cost float64) error {
		select {
		case slots <- struct{}{}:
		case <-pool.Done():
			return pool.Err()
		}
		mu.Lock()
		inFlight++
		if inFlight > ens.PeakInFlight {
			ens.PeakInFlight = inFlight
		}
		mu.Unlock()
		select {
		case jobs <- job{i: i, g: g, cost: cost}:
			return nil
		case <-pool.Done():
			return pool.Err()
		}
	})
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return ens, err
	}
	mu.Lock()
	ferr := foldErr
	mu.Unlock()
	if ferr != nil {
		return ens, ferr
	}
	if genErr != nil {
		return ens, fmt.Errorf("validate: source %s: %w", src.Name, genErr)
	}
	return ens, nil
}

// foldAndWrite writes the record line (if w is non-nil) and folds the
// characterization into the aggregates. Callers serialize calls in index
// order.
func foldAndWrite(ens *Ensemble, c *characterization, w io.Writer) error {
	if w != nil {
		line, err := json.Marshal(c.rec)
		if err != nil {
			return fmt.Errorf("validate: encode record %d: %w", c.rec.Replica, err)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("validate: write record %d: %w", c.rec.Replica, err)
		}
	}
	ens.fold(c)
	return nil
}
