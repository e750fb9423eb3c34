// Package experiments contains one harness per table and figure of the
// COLD paper's evaluation (§2, §5–§7); cmd/coldbench prints them and
// bench_test.go wraps them in testing.B benchmarks.
//
// A harness has three parts, so tests read numbers rather than cells. A
// run function returns per-member float64 samples in member order,
// samples[point][metric]; a metric drops a member on which it is
// undefined (NaN). The one CI step, cis, bootstraps every metric's 95% CI
// from the harness's own stream, point-major and metric-minor; that draw
// order is part of the printed bytes. A renderer builds the Table.
//
// Every COLD network a harness measures is a member of a cold.Config
// ensemble from cold.GenerateEnsembleStream (Figure 4 times single
// cold.Generate calls), so the figures describe the generator users run.
//
// Paper-scale settings (n = 30, M = T = 100, 20–200 trials per point) are
// the defaults' upper end; Options.Trials scales the sweeps down for quick
// runs. EXPERIMENTS.md records paper-vs-measured values for each harness.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/par"
	"github.com/networksynth/cold/internal/stats"
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

// normalize fills zero fields from Defaults. The exported harnesses
// normalize their options; the run functions they call take them as given.
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
	rows := append([][]string{t.Columns}, t.Rows...)
	widths := make([]int, len(t.Columns))
	for _, row := range rows {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
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

// config is the paper's default context model (uniform PoPs on the unit
// square, exponential populations, gravity traffic) at k0=10, k1=1 and the
// given k2 and k3, sized and seeded from the options.
func (o Options) config(k2, k3 float64) cold.Config {
	return cold.Config{
		NumPoPs:   o.N,
		Params:    cold.Params{K0: 10, K1: 1, K2: k2, K3: k3},
		Seed:      o.Seed,
		Optimizer: cold.OptimizerSpec{PopulationSize: o.GAPop, Generations: o.GAGens},
	}
}

// ensemble generates trials members of cfg with the library's parallel
// ensemble engine and hands each to visit in member order. Member i's
// context depends only on (cfg.Seed, i) and the context model, so every
// sweep point of a harness sees the same contexts (common random numbers).
func ensemble(cfg cold.Config, trials int, visit func(i int, nw *cold.Network)) {
	err := cold.GenerateEnsembleStream(context.Background(), cfg, trials, func(i int, nw *cold.Network) error {
		visit(i, nw)
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: ensemble: %v", err))
	}
}

// members is ensemble collected into a slice in member order, for
// harnesses that fan per-member work out through par.Each afterwards.
func members(cfg cold.Config, trials int) []*cold.Network {
	nets := make([]*cold.Network, trials)
	ensemble(cfg, trials, func(i int, nw *cold.Network) { nets[i] = nw })
	return nets
}

// graphOf returns the topology of a generated network.
func graphOf(nw *cold.Network) *graph.Graph {
	g := graph.New(nw.N())
	for _, l := range nw.Links {
		g.AddEdge(l.A, l.B)
	}
	return g
}

// evaluator rebuilds the cost evaluator that generated nw under p from the
// network's exported points and populations, so baselines are costed on
// exactly the context, and with exactly the arithmetic, the library used.
func evaluator(nw *cold.Network, p cold.Params) *cost.Evaluator {
	pts := make([]geom.Point, nw.N())
	for i, q := range nw.Points {
		pts[i] = geom.Point{X: q.X, Y: q.Y}
	}
	tm := traffic.Gravity(nw.Populations, traffic.DefaultGravityScale)
	e, err := cost.NewEvaluator(geom.DistanceMatrix(pts), tm, cost.Params(p))
	if err != nil {
		panic(fmt.Sprintf("experiments: internal context error: %v", err))
	}
	return e
}

// sample generates cfg's trials-member ensemble, reads each member's
// metrics, one member per CPU, and returns each metric's samples in member
// order. A NaN value drops that member from its metric.
func sample(cfg cold.Config, trials int, read func(i int, nw *cold.Network) []float64) [][]float64 {
	nets := members(cfg, trials)
	vals := make([][]float64, trials)
	par.Each(runtime.GOMAXPROCS(0), trials, func(_, i int) { vals[i] = read(i, nets[i]) })
	metrics := make([][]float64, len(vals[0]))
	for _, member := range vals {
		for m, v := range member {
			if !math.IsNaN(v) {
				metrics[m] = append(metrics[m], v)
			}
		}
	}
	return metrics
}

// cis is the harnesses' one CI step: the 95% bootstrap CI of every metric
// at every point of samples, drawn from the stream seeded at
// o.Seed+stream, point-major and metric-minor. A metric with no samples
// draws nothing and gets a NaN mean.
func cis(samples [][][]float64, o Options, stream int64) [][]stats.CI {
	rng := rand.New(rand.NewSource(o.Seed + stream))
	out := make([][]stats.CI, len(samples))
	for p, point := range samples {
		for _, xs := range point {
			out[p] = append(out[p], stats.BootstrapMeanCI(xs, 0.95, o.Bootstrap, rng))
		}
	}
	return out
}

// ciCell renders a CI as "mean [lo,hi]", or "-" for a metric that kept no
// member.
func ciCell(ci stats.CI) string {
	if math.IsNaN(ci.Mean) {
		return "-"
	}
	return fmt.Sprintf("%.4g [%.4g,%.4g]", ci.Mean, ci.Lo, ci.Hi)
}

// ciRows renders one row per point of samples: its label, then a CI cell
// per metric, the CIs drawn as cis does.
func ciRows(label func(p int) string, samples [][][]float64, o Options, stream int64) [][]string {
	rows := make([][]string, len(samples))
	for p, point := range cis(samples, o, stream) {
		rows[p] = []string{label(p)}
		for _, ci := range point {
			rows[p] = append(rows[p], ciCell(ci))
		}
	}
	return rows
}

func fmtF(v float64) string { return fmt.Sprintf("%.4g", v) }
