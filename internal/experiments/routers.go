package experiments

import (
	"fmt"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/routerlevel"
	"github.com/networksynth/cold/internal/stats"
)

// trafficModels are the traffic models RouterSpread compares.
var trafficModels = []contextModel{
	{"exponential", cold.LocationSpec{}, cold.TrafficSpec{Kind: cold.TrafficExponential}},
	{"pareto(1.5)", cold.LocationSpec{}, cold.TrafficSpec{Kind: cold.TrafficPareto, ParetoShape: 1.5}},
	{"pareto(10/9)", cold.LocationSpec{}, cold.TrafficSpec{Kind: cold.TrafficPareto, ParetoShape: 10.0 / 9.0}},
}

// routerSamples expands every member to the router level and returns its
// router total, the most routers in one PoP, the CV of routers per PoP,
// the max/mean ratio of routers per PoP (each dropped where NaN) and the
// PoP-level average degree, for each of trafficModels.
func routerSamples(o Options) [][][]float64 {
	return modelSamples(trafficModels, o, func(_ int, nw *cold.Network) []float64 {
		rn, err := routerlevel.Expand(nw, routerlevel.DefaultTemplate(20000))
		if err != nil {
			panic(err)
		}
		perPoP := make([]float64, nw.N())
		for p := range perPoP {
			perPoP[p] = float64(len(rn.RoutersIn(p)))
		}
		_, hi := stats.MinMax(perPoP)
		return []float64{float64(rn.NumRouters()), hi, stats.CoefficientOfVariation(perPoP),
			hi / stats.Mean(perPoP), nw.Stats().AverageDegree}
	})
}

// RouterSpread reproduces the §3.1 observation that motivates starting
// synthesis at the PoP level: "A Pareto model will generate a wider spread
// of traffic volumes per PoP, and as a result PoPs will have a wider
// spread in the numbers of routers needed than in the exponential model"
// — i.e. the PoP-level ensembles are context-insensitive (see
// ContextSensitivity) but the *router level* is not.
func RouterSpread(o Options) *Table {
	o = o.normalize()
	return &Table{
		Title: fmt.Sprintf("§3.1: router-count spread per PoP by traffic model (n=%d)", o.N),
		Notes: []string{
			fmt.Sprintf("%d networks per model; router template: redundant cores, 1 access router per 20k traffic", o.Trials),
			"paper: heavy-tailed traffic widens the router-count spread while the PoP level stays similar",
		},
		Columns: []string{"traffic model", "routers total", "max routers/PoP", "router CV", "max/mean routers", "PoP avg degree"},
		Rows:    ciRows(func(p int) string { return trafficModels[p].name }, routerSamples(o), o, 4242),
	}
}
