package experiments

import (
	"fmt"
	"math"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/metrics"
	"github.com/networksynth/cold/internal/stats"
)

// ExtraFeatures reproduces §6's closing observation: beyond degree,
// diameter, clustering and CVND, the paper "examined other features: for
// instance assortativity, average shortest-path lengths, and average node
// and link betweenness... the results are all of a similar nature" — the
// same smooth, monotone control by the cost parameters. This harness
// sweeps k2 at fixed k3 and reports those extra statistics.
func ExtraFeatures(k3 float64, o Options) *Table {
	o = o.normalize()
	t := &Table{
		Title: fmt.Sprintf("§6 extras: assortativity / path length / betweenness vs k2 (k3=%g, n=%d)", k3, o.N),
		Notes: []string{
			fmt.Sprintf("k0=10, k1=1, %d trials per point; mean [95%% bootstrap CI]", o.Trials),
			"paper: same controlled variation as the headline statistics",
		},
		Columns: []string{"k2", "assortativity", "avg path (hops)", "avg node btw", "avg link btw", "s-metric"},
	}
	ciRNG := newCIRand(o)
	for _, k2 := range K2Grid {
		var assort, apl, nodeB, linkB, smet []float64
		ensemble(o.config(k2, k3), o.Trials, func(_ int, nw *cold.Network) {
			best := graphOf(nw)
			if a := metrics.Assortativity(best); !math.IsNaN(a) {
				assort = append(assort, a)
			}
			apl = append(apl, metrics.AveragePathLength(best))
			nodeB = append(nodeB, stats.Mean(metrics.NodeBetweenness(best)))
			linkB = append(linkB, stats.Mean(metrics.EdgeBetweenness(best)))
			smet = append(smet, metrics.SMetric(best))
		})
		row := []string{fmtF(k2)}
		for _, xs := range [][]float64{assort, apl, nodeB, linkB, smet} {
			if len(xs) == 0 {
				row = append(row, "-")
				continue
			}
			ci := stats.BootstrapMeanCI(xs, 0.95, o.Bootstrap, ciRNG)
			row = append(row, fmtCI(ci.Mean, ci.Lo, ci.Hi))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
