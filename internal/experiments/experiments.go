// Package experiments contains one harness per table and figure of the
// COLD paper's evaluation (§2, §5–§7). Each harness generates the
// workload, runs the sweep and returns a Table whose rows/series mirror
// what the paper reports; cmd/coldbench prints them and bench_test.go wraps
// them in testing.B benchmarks.
//
// Paper-scale settings (n = 30, M = T = 100, 20–200 trials per point) are
// the defaults' upper end; Options.Trials scales the sweeps down for quick
// runs. EXPERIMENTS.md records paper-vs-measured values for each harness.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"github.com/networksynth/cold/internal/core"
	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/heuristics"
	"github.com/networksynth/cold/internal/traffic"
)

// Options scale the experiment harnesses.
type Options struct {
	// Trials per data point (the paper uses 20 for Figure 3 and 200 for
	// Figures 5–9; the default here is 10 to keep single-machine runs
	// tractable — widen for publication-grade error bars).
	Trials int

	// N is the number of PoPs (paper: 30 for all tunability figures).
	N int

	// GAPop and GAGens are M and T (paper: 100 and 100).
	GAPop  int
	GAGens int

	// Bootstrap resamples for confidence intervals (paper: 95% CIs).
	Bootstrap int

	// Seed makes the whole experiment reproducible.
	Seed int64
}

// Defaults returns the standard options used by cmd/coldbench.
func Defaults() Options {
	return Options{Trials: 10, N: 30, GAPop: 100, GAGens: 100, Bootstrap: 1000, Seed: 1}
}

// normalize fills zero fields from Defaults.
func (o Options) normalize() Options {
	d := Defaults()
	if o.Trials <= 0 {
		o.Trials = d.Trials
	}
	if o.N <= 0 {
		o.N = d.N
	}
	if o.GAPop <= 0 {
		o.GAPop = d.GAPop
	}
	if o.GAGens <= 0 {
		o.GAGens = d.GAGens
	}
	if o.Bootstrap <= 0 {
		o.Bootstrap = d.Bootstrap
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Notes   []string
	Columns []string
	Rows    [][]string
}

// Print writes the table as aligned text.
func (t *Table) Print(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// K2Grid is the bandwidth-cost sweep used across Figures 3 and 5–7
// (the paper's x-axis spans roughly 2.5e-5 to 1.6e-3).
var K2Grid = []float64{2.5e-5, 5e-5, 1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3}

// K3Grid is the hub-cost set of Figures 5–7.
var K3Grid = []float64{0, 10, 100, 1000}

// K2Set4 is the four-value k2 set of Figures 8b and 9.
var K2Set4 = []float64{2.5e-5, 1e-4, 4e-4, 1.6e-3}

// K3Sweep is the log-spaced hub-cost sweep of Figures 8b and 9.
var K3Sweep = []float64{1, 3.16, 10, 31.6, 100, 316, 1000}

// context samples one random context (uniform PoPs, exponential
// populations, gravity traffic — the paper's defaults) and returns its
// evaluator.
func newContext(n int, p cost.Params, rng *rand.Rand) *cost.Evaluator {
	pts := geom.NewUniform().Sample(n, rng)
	pops := traffic.NewExponential().Sample(n, rng)
	e, err := cost.NewEvaluator(geom.DistanceMatrix(pts), traffic.Gravity(pops, traffic.DefaultGravityScale), p)
	if err != nil {
		panic(fmt.Sprintf("experiments: internal context error: %v", err))
	}
	return e
}

// gaSettings builds GA settings from options.
func gaSettings(o Options) core.Settings {
	return core.SizedSettings(o.GAPop, o.GAGens)
}

// runGA runs the plain GA on a context.
func runGA(e *cost.Evaluator, o Options, rng *rand.Rand) *core.Result {
	res, err := core.Run(e, gaSettings(o), rng.Uint64())
	if err != nil {
		panic(fmt.Sprintf("experiments: GA error: %v", err))
	}
	return res
}

// runInitGA runs the initialised GA: heuristics first, their outputs as
// seeds.
func runInitGA(e *cost.Evaluator, o Options, rng *rand.Rand) *core.Result {
	s := gaSettings(o)
	s.Seeds = heuristics.Graphs(heuristics.All(e, rng))
	res, err := core.Run(e, s, rng.Uint64())
	if err != nil {
		panic(fmt.Sprintf("experiments: GA error: %v", err))
	}
	return res
}

// bestOf runs the GA and returns just the best topology.
func bestOf(e *cost.Evaluator, o Options, rng *rand.Rand) *graph.Graph {
	return runGA(e, o, rng).Best
}

func fmtF(v float64) string { return fmt.Sprintf("%.4g", v) }

// newCIRand returns the rng stream used for bootstrap CIs.
func newCIRand(o Options) *rand.Rand { return rand.New(rand.NewSource(o.Seed + 4242)) }

func fmtCI(mean, lo, hi float64) string {
	return fmt.Sprintf("%.4g [%.4g,%.4g]", mean, lo, hi)
}
