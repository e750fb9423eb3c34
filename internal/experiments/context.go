package experiments

import (
	"fmt"
	"math/rand"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/stats"
)

// ContextSensitivity reproduces the §3.1/§7 finding: the statistics of the
// generated PoP-level ensembles are *insensitive* to the context model —
// bursty locations, long-thin regions and heavy-tailed (Pareto) traffic
// shift average degree, CVND, diameter and clustering only slightly, and
// in particular none of them push CVND anywhere near the >1 values that
// only the k3 hub cost can produce.
func ContextSensitivity(o Options) *Table {
	o = o.normalize()
	models := []struct {
		name      string
		locations cold.LocationSpec
		traffic   cold.TrafficSpec
	}{
		{"uniform+exp (default)", cold.LocationSpec{}, cold.TrafficSpec{}},
		{"bursty+exp", cold.LocationSpec{Kind: cold.LocClustered, Clusters: 4, Sigma: 0.05}, cold.TrafficSpec{}},
		{"long-thin+exp", cold.LocationSpec{Aspect: 9}, cold.TrafficSpec{}}, // 3:1/3 at unit area
		{"uniform+pareto(1.5)", cold.LocationSpec{}, cold.TrafficSpec{Kind: cold.TrafficPareto, ParetoShape: 1.5}},
		{"uniform+pareto(10/9)", cold.LocationSpec{}, cold.TrafficSpec{Kind: cold.TrafficPareto, ParetoShape: 10.0 / 9.0}},
	}
	cfg := o.config(2e-4, 0)
	t := &Table{
		Title: fmt.Sprintf("§3.1/§7: context sensitivity of the synthesized ensemble (n=%d, %s)", o.N, cost.Params(cfg.Params)),
		Notes: []string{
			fmt.Sprintf("%d networks per context model; mean [95%% bootstrap CI]", o.Trials),
			"paper: effects are small; even Pareto(10/9) traffic cannot raise CVND near 1",
		},
		Columns: []string{"context", "avg degree", "CVND", "diameter", "clustering", "leaves"},
	}
	ciRNG := rand.New(rand.NewSource(o.Seed + 333))
	for _, m := range models {
		cfg.Locations, cfg.Traffic = m.locations, m.traffic
		var degs, cvs, dias, clus, leaves []float64
		ensemble(cfg, o.Trials, func(_ int, nw *cold.Network) {
			st := nw.Stats()
			degs = append(degs, st.AverageDegree)
			cvs = append(cvs, st.DegreeCV)
			dias = append(dias, float64(st.Diameter))
			clus = append(clus, st.Clustering)
			leaves = append(leaves, float64(st.Leaves))
		})
		row := []string{m.name}
		for _, xs := range [][]float64{degs, cvs, dias, clus, leaves} {
			ci := stats.BootstrapMeanCI(xs, 0.95, o.Bootstrap, ciRNG)
			row = append(row, fmtCI(ci.Mean, ci.Lo, ci.Hi))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
