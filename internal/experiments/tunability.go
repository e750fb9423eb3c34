package experiments

import (
	"fmt"
	"math/rand"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/stats"
)

// TunabilityResult holds the shared k2×k3 sweep behind Figures 5, 6 and 7
// (one GA ensemble per grid point, three statistics read off each
// ensemble), so a single sweep feeds all three tables.
type TunabilityResult struct {
	opts Options

	k2s []float64
	k3s []float64
	// metric -> k3 -> k2 -> CI
	degree     [][]stats.CI
	diameter   [][]stats.CI
	clustering [][]stats.CI
}

// TunabilitySweep runs the Figures 5–7 sweep: for every (k2, k3) in the
// paper's grids, synthesize a Trials-member ensemble (the same contexts at
// every point) and record average node degree, hop diameter and global
// clustering coefficient with bootstrap CIs.
func TunabilitySweep(o Options) *TunabilityResult {
	o = o.normalize()
	r := &TunabilityResult{opts: o, k2s: K2Grid, k3s: K3Grid}
	ciRNG := rand.New(rand.NewSource(o.Seed + 555))
	for _, k3 := range r.k3s {
		var degRow, diaRow, cluRow []stats.CI
		for _, k2 := range r.k2s {
			var degs, dias, clus []float64
			ensemble(o.config(k2, k3), o.Trials, func(_ int, nw *cold.Network) {
				st := nw.Stats()
				degs = append(degs, st.AverageDegree)
				dias = append(dias, float64(st.Diameter))
				clus = append(clus, st.Clustering)
			})
			degRow = append(degRow, stats.BootstrapMeanCI(degs, 0.95, o.Bootstrap, ciRNG))
			diaRow = append(diaRow, stats.BootstrapMeanCI(dias, 0.95, o.Bootstrap, ciRNG))
			cluRow = append(cluRow, stats.BootstrapMeanCI(clus, 0.95, o.Bootstrap, ciRNG))
		}
		r.degree = append(r.degree, degRow)
		r.diameter = append(r.diameter, diaRow)
		r.clustering = append(r.clustering, cluRow)
	}
	return r
}

func (r *TunabilityResult) table(title, paperNote string, data [][]stats.CI) *Table {
	t := &Table{
		Title: title,
		Notes: []string{
			fmt.Sprintf("k0=10, k1=1, n=%d, %d trials per point; mean [95%% bootstrap CI]", r.opts.N, r.opts.Trials),
			paperNote,
		},
		Columns: []string{"k2"},
	}
	for _, k3 := range r.k3s {
		t.Columns = append(t.Columns, fmt.Sprintf("k3=%g", k3))
	}
	for i, k2 := range r.k2s {
		row := []string{fmtF(k2)}
		for j := range r.k3s {
			ci := data[j][i]
			row = append(row, fmtCI(ci.Mean, ci.Lo, ci.Hi))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig5 returns the average-node-degree table (Figure 5). Expected shape:
// increases with k2 from near the tree minimum 2−2/n, decreases with k3.
func (r *TunabilityResult) Fig5() *Table {
	return r.table(
		"Figure 5: average node degree vs k2, by k3",
		"paper: smooth monotone growth in k2, from ~1.9 toward 3.2; larger k3 lowers the curve",
		r.degree)
}

// Fig6 returns the network-diameter table (Figure 6). Expected shape: high
// at intermediate k2 for small k3; low for large k3 (hub-and-spoke) and
// large k2 (mesh).
func (r *TunabilityResult) Fig6() *Table {
	return r.table(
		"Figure 6: network diameter (hops) vs k2, by k3",
		"paper: peak ~12 at small k2/k3, falling toward 2-4 as either cost grows",
		r.diameter)
}

// Fig7 returns the global-clustering table (Figure 7). Expected shape:
// increases with k2 (trees → meshes), suppressed by k3.
func (r *TunabilityResult) Fig7() *Table {
	return r.table(
		"Figure 7: global clustering coefficient vs k2, by k3",
		"paper: 0 at small k2 rising toward ~0.2 at k2=1.6e-3 for k3=0",
		r.clustering)
}

// HubbinessResult holds the k3 sweep behind Figures 8b and 9.
type HubbinessResult struct {
	opts Options
	k2s  []float64
	k3s  []float64
	// k2 -> k3 -> CI
	cvnd [][]stats.CI
	hubs [][]stats.CI
}

// HubbinessSweep runs the Figures 8b/9 sweep: CVND and hub count versus
// the hub cost k3, for the paper's four k2 values.
func HubbinessSweep(o Options) *HubbinessResult {
	o = o.normalize()
	r := &HubbinessResult{opts: o, k2s: K2Set4, k3s: K3Sweep}
	ciRNG := rand.New(rand.NewSource(o.Seed + 777))
	for _, k2 := range r.k2s {
		var cvRow, hubRow []stats.CI
		for _, k3 := range r.k3s {
			var cvs, hubs []float64
			ensemble(o.config(k2, k3), o.Trials, func(_ int, nw *cold.Network) {
				st := nw.Stats()
				cvs = append(cvs, st.DegreeCV)
				hubs = append(hubs, float64(st.Hubs))
			})
			cvRow = append(cvRow, stats.BootstrapMeanCI(cvs, 0.95, o.Bootstrap, ciRNG))
			hubRow = append(hubRow, stats.BootstrapMeanCI(hubs, 0.95, o.Bootstrap, ciRNG))
		}
		r.cvnd = append(r.cvnd, cvRow)
		r.hubs = append(r.hubs, hubRow)
	}
	return r
}

func (r *HubbinessResult) table(title, paperNote string, data [][]stats.CI) *Table {
	t := &Table{
		Title: title,
		Notes: []string{
			fmt.Sprintf("k0=10, k1=1, n=%d, %d trials per point; mean [95%% bootstrap CI]", r.opts.N, r.opts.Trials),
			paperNote,
		},
		Columns: []string{"k3"},
	}
	for _, k2 := range r.k2s {
		t.Columns = append(t.Columns, fmt.Sprintf("k2=%g", k2))
	}
	for j, k3 := range r.k3s {
		row := []string{fmtF(k3)}
		for i := range r.k2s {
			ci := data[i][j]
			row = append(row, fmtCI(ci.Mean, ci.Lo, ci.Hi))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig8b returns the CVND-vs-k3 table (Figure 8b). Expected shape: CVND
// well below 1 at small k3 for every k2 (the headline argument for the
// node cost), rising to 1.5–3 at k3 = 1000.
func (r *HubbinessResult) Fig8b() *Table {
	return r.table(
		"Figure 8b: coefficient of variation of node degree vs k3, by k2",
		"paper: CVND < 1 for all k2 at small k3; reaches ~2-3 at k3=1000",
		r.cvnd)
}

// Fig9 returns the hub-count-vs-k3 table (Figure 9). Expected shape: most
// PoPs are hubs at small k3; the count collapses toward 1 as k3 grows.
func (r *HubbinessResult) Fig9() *Table {
	return r.table(
		"Figure 9: number of core (hub) PoPs vs k3, by k2",
		"paper: ~15-25 hubs at k3=1, falling to ~1-3 at k3=1000 (n=30)",
		r.hubs)
}
