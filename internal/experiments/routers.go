package experiments

import (
	"fmt"
	"math"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/routerlevel"
	"github.com/networksynth/cold/internal/stats"
)

// RouterSpread reproduces the §3.1 observation that motivates starting
// synthesis at the PoP level: "A Pareto model will generate a wider spread
// of traffic volumes per PoP, and as a result PoPs will have a wider
// spread in the numbers of routers needed than in the exponential model"
// — i.e. the PoP-level ensembles are context-insensitive (see
// ContextSensitivity) but the *router level* is not.
func RouterSpread(o Options) *Table {
	o = o.normalize()
	models := []struct {
		name string
		spec cold.TrafficSpec
	}{
		{"exponential", cold.TrafficSpec{Kind: cold.TrafficExponential}},
		{"pareto(1.5)", cold.TrafficSpec{Kind: cold.TrafficPareto, ParetoShape: 1.5}},
		{"pareto(10/9)", cold.TrafficSpec{Kind: cold.TrafficPareto, ParetoShape: 10.0 / 9.0}},
	}
	t := &Table{
		Title: fmt.Sprintf("§3.1: router-count spread per PoP by traffic model (n=%d)", o.N),
		Notes: []string{
			fmt.Sprintf("%d networks per model; router template: redundant cores, 1 access router per 20k traffic", o.Trials),
			"paper: heavy-tailed traffic widens the router-count spread while the PoP level stays similar",
		},
		Columns: []string{"traffic model", "routers total", "max routers/PoP", "router CV", "max/mean routers", "PoP avg degree"},
	}
	ciRNG := newCIRand(o)
	for _, m := range models {
		var totals, maxes, cvs, ratios, degs []float64
		cfg := o.config(2e-4, 0)
		cfg.Traffic = m.spec
		ensemble(cfg, o.Trials, func(_ int, nw *cold.Network) {
			rn, err := routerlevel.Expand(nw, routerlevel.DefaultTemplate(20000))
			if err != nil {
				panic(err)
			}
			perPoP := make([]float64, o.N)
			for p := 0; p < o.N; p++ {
				perPoP[p] = float64(len(rn.RoutersIn(p)))
			}
			totals = append(totals, float64(rn.NumRouters()))
			_, hi := stats.MinMax(perPoP)
			maxes = append(maxes, hi)
			if cv := stats.CoefficientOfVariation(perPoP); !math.IsNaN(cv) {
				cvs = append(cvs, cv)
			}
			if mean := stats.Mean(perPoP); mean > 0 {
				ratios = append(ratios, hi/mean)
			}
			degs = append(degs, nw.Stats().AverageDegree)
		})
		row := []string{m.name}
		for _, xs := range [][]float64{totals, maxes, cvs, ratios, degs} {
			ci := stats.BootstrapMeanCI(xs, 0.95, o.Bootstrap, ciRNG)
			row = append(row, fmtCI(ci.Mean, ci.Lo, ci.Hi))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
