package experiments

import (
	"fmt"

	cold "github.com/networksynth/cold"
)

// Grid is a k2×k3 sweep: one Trials-member ensemble per point (the same
// contexts at every point) and one statistic per figure read off each
// member. Its tables print one row per inner value and one column per
// outer value.
type Grid struct {
	opts         Options
	k2Outer      bool // the outer axis is k2, else k3
	outer, inner []float64
	stream       int64       // CI stream offset
	figs         [][2]string // each figure's title and paper note
	// samples[j*len(inner)+i][f] holds figure f's statistic on each member
	// at outer value j and inner value i, in member order.
	samples [][][]float64
}

// sweepGrid runs the grid's ensembles, outer value by outer value; read
// returns a member's statistics in figs order.
func sweepGrid(o Options, k2Outer bool, outer, inner []float64, stream int64, figs [][2]string, read func(cold.Stats) []float64) *Grid {
	o = o.normalize()
	g := &Grid{opts: o, k2Outer: k2Outer, outer: outer, inner: inner, stream: stream, figs: figs}
	for _, x := range outer {
		for _, y := range inner {
			k2, k3 := y, x
			if k2Outer {
				k2, k3 = x, y
			}
			g.samples = append(g.samples, sample(o.config(k2, k3), o.Trials, func(_ int, nw *cold.Network) []float64 {
				return read(nw.Stats())
			}))
		}
	}
	return g
}

// TunabilitySweep runs the Figures 5–7 sweep: for every (k2, k3) in the
// paper's grids, synthesize a Trials-member ensemble and record average
// node degree (Figure 5), hop diameter (6) and global clustering
// coefficient (7). Rows run along k2, columns along k3.
func TunabilitySweep(o Options) *Grid {
	return sweepGrid(o, false, K3Grid, K2Grid, 555, [][2]string{
		{"Figure 5: average node degree vs k2, by k3", "paper: smooth monotone growth in k2, from ~1.9 toward 3.2; larger k3 lowers the curve"},
		{"Figure 6: network diameter (hops) vs k2, by k3", "paper: peak ~12 at small k2/k3, falling toward 2-4 as either cost grows"},
		{"Figure 7: global clustering coefficient vs k2, by k3", "paper: 0 at small k2 rising toward ~0.2 at k2=1.6e-3 for k3=0"},
	}, func(st cold.Stats) []float64 { return []float64{st.AverageDegree, float64(st.Diameter), st.Clustering} })
}

// HubbinessSweep runs the Figures 8b/9 sweep: CVND (Figure 8b) and hub
// count (9) versus the hub cost k3, for the paper's four k2 values. Rows
// run along k3, columns along k2.
func HubbinessSweep(o Options) *Grid {
	return sweepGrid(o, true, K2Set4, K3Sweep, 777, [][2]string{
		{"Figure 8b: coefficient of variation of node degree vs k3, by k2", "paper: CVND < 1 for all k2 at small k3; reaches ~2-3 at k3=1000"},
		{"Figure 9: number of core (hub) PoPs vs k3, by k2", "paper: ~15-25 hubs at k3=1, falling to ~1-3 at k3=1000 (n=30)"},
	}, func(st cold.Stats) []float64 { return []float64{st.DegreeCV, float64(st.Hubs)} })
}

// table renders figure f's statistic with bootstrap CIs.
func (g *Grid) table(f int) *Table {
	outerName, innerName := "k3", "k2"
	if g.k2Outer {
		outerName, innerName = innerName, outerName
	}
	t := &Table{
		Title: g.figs[f][0],
		Notes: []string{
			fmt.Sprintf("k0=10, k1=1, n=%d, %d trials per point; mean [95%% bootstrap CI]", g.opts.N, g.opts.Trials),
			g.figs[f][1],
		},
		Columns: []string{innerName},
	}
	for _, x := range g.outer {
		t.Columns = append(t.Columns, fmt.Sprintf("%s=%g", outerName, x))
	}
	ci := cis(g.samples, g.opts, g.stream)
	for i, y := range g.inner {
		row := []string{fmtF(y)}
		for j := range g.outer {
			row = append(row, ciCell(ci[j*len(g.inner)+i][f]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig5 renders a TunabilitySweep's average-node-degree table. Expected
// shape: increases with k2 from near the tree minimum 2−2/n, decreases
// with k3.
func (g *Grid) Fig5() *Table { return g.table(0) }

// Fig6 renders a TunabilitySweep's diameter table. Expected shape: high at
// intermediate k2 for small k3; low for large k3 (hub-and-spoke) and large
// k2 (mesh).
func (g *Grid) Fig6() *Table { return g.table(1) }

// Fig7 renders a TunabilitySweep's global-clustering table. Expected
// shape: increases with k2 (trees → meshes), suppressed by k3.
func (g *Grid) Fig7() *Table { return g.table(2) }

// Fig8b renders a HubbinessSweep's CVND table. Expected shape: CVND well
// below 1 at small k3 for every k2 (the headline argument for the node
// cost), rising to 1.5–3 at k3 = 1000.
func (g *Grid) Fig8b() *Table { return g.table(0) }

// Fig9 renders a HubbinessSweep's hub-count table. Expected shape: most
// PoPs are hubs at small k3; the count collapses toward 1 as k3 grows.
func (g *Grid) Fig9() *Table { return g.table(1) }
