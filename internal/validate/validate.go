// Package validate is the ensemble-scale validation pipeline: it streams
// topologies from a source (COLD's generator, the zoo stand-in, random-graph
// baselines), characterizes each one as it is emitted, writes one
// machine-readable JSONL record per topology, and maintains online
// aggregates — Welford mean/variance per scalar metric, pooled 1K/2K
// distributions, finite-sample vectors for bootstrap confidence intervals —
// with bounded memory: no graph is retained past its emit.
//
// On top of the per-family Ensemble aggregates, Score builds the COLD
// scorecard: "does the generated ensemble match the target family?" —
// bootstrap CIs and KS statistics per metric, total-variation distances
// between pooled 1K/2K distributions, and a pass verdict under explicit
// thresholds. Everything is deterministic: records and scorecards are
// byte-identical for every generation Parallelism.
package validate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"github.com/networksynth/cold/internal/graph"
)

// Source yields the topologies of one family in index order.
type Source struct {
	// Name labels every record of the family (e.g. "cold", "zoo", "er").
	Name string

	// Count is the number of topologies the source will emit.
	Count int

	// Generate streams the topologies: it must call emit exactly once per
	// index, in order 0..Count-1, never concurrently, and stop when emit
	// returns an error. emit characterizes the graph before it returns and
	// keeps no reference to it. cost is the synthesis objective total, or
	// NaN for families that have none.
	Generate func(ctx context.Context, emit func(i int, g *graph.Graph, cost float64) error) error
}

// Run streams src through characterization and returns the family's
// aggregates. Each topology is characterized, folded and (when records is
// non-nil) written as one JSON line, terminated by '\n', inside the
// source's emit, so records come out in index order and memory is
// independent of the source's Count. Parallelism lives in the source —
// ColdSource generates through the parallel ensemble engine — because
// characterizing a topology costs about a thousandth of generating one.
func Run(ctx context.Context, src Source, records io.Writer) (*Ensemble, error) {
	if src.Count < 0 {
		return nil, fmt.Errorf("validate: negative source count %d", src.Count)
	}
	ens := newEnsemble(src.Name)
	var foldErr error
	genErr := src.Generate(ctx, func(i int, g *graph.Graph, cost float64) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		rec, d1, d2 := Characterize(src.Name, i, g, cost)
		foldErr = foldAndWrite(ens, records, rec, d1, d2)
		return foldErr
	})
	switch {
	case ctx.Err() != nil:
		return ens, ctx.Err()
	case foldErr != nil:
		return ens, foldErr
	case genErr != nil:
		return ens, fmt.Errorf("validate: source %s: %w", src.Name, genErr)
	}
	return ens, nil
}

// foldAndWrite writes the record line (if w is non-nil) and folds one
// characterization into the aggregates. Calls come in index order.
func foldAndWrite(ens *Ensemble, w io.Writer, rec Record, d1 map[int]int, d2 map[[2]int]int) error {
	if w != nil {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("validate: encode record %d: %w", rec.Replica, err)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("validate: write record %d: %w", rec.Replica, err)
		}
	}
	ens.fold(rec, d1, d2)
	return nil
}
