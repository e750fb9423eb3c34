package experiments

import (
	"fmt"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/metrics"
	"github.com/networksynth/cold/internal/stats"
)

// extraSamples returns assortativity (dropped where NaN), average path
// length, mean node and link betweenness and the s-metric per member at
// each k2 of the sweep: samples[k2][metric][member].
func extraSamples(k3 float64, o Options) [][][]float64 {
	var samples [][][]float64
	for _, k2 := range K2Grid {
		samples = append(samples, sample(o.config(k2, k3), o.Trials, func(_ int, nw *cold.Network) []float64 {
			g := graphOf(nw)
			return []float64{
				metrics.Assortativity(g),
				metrics.AveragePathLength(g),
				stats.Mean(metrics.NodeBetweenness(g)),
				stats.Mean(metrics.EdgeBetweenness(g)),
				metrics.SMetric(g),
			}
		}))
	}
	return samples
}

// ExtraFeatures reproduces §6's closing observation: beyond degree,
// diameter, clustering and CVND, the paper "examined other features: for
// instance assortativity, average shortest-path lengths, and average node
// and link betweenness... the results are all of a similar nature" — the
// same smooth, monotone control by the cost parameters. This harness
// sweeps k2 at fixed k3 and reports those extra statistics.
func ExtraFeatures(k3 float64, o Options) *Table {
	o = o.normalize()
	return &Table{
		Title: fmt.Sprintf("§6 extras: assortativity / path length / betweenness vs k2 (k3=%g, n=%d)", k3, o.N),
		Notes: []string{
			fmt.Sprintf("k0=10, k1=1, %d trials per point; mean [95%% bootstrap CI]", o.Trials),
			"paper: same controlled variation as the headline statistics",
		},
		Columns: []string{"k2", "assortativity", "avg path (hops)", "avg node btw", "avg link btw", "s-metric"},
		Rows:    ciRows(func(p int) string { return fmtF(K2Grid[p]) }, extraSamples(k3, o), o, 4242),
	}
}
