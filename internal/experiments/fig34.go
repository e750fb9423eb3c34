package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/core"
	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/heuristics"
	"github.com/networksynth/cold/internal/par"
	"github.com/networksynth/cold/internal/stats"
)

// fig3Tag domain-separates the seeds of Figure 3's heuristics and
// initialised GA from the library's own seed derivations.
const fig3Tag = 0xF163

// fig3Algos are Figure 3's algorithms in column order: four greedy
// heuristics, the plain GA and the initialised GA, the normalizer.
var fig3Algos = []string{"random-greedy", "complete", "hub-mst", "greedy-attach", "GA", "init-GA"}

// fig3Costs returns the best cost each of Figure 3's algorithms finds on
// every ensemble member at every k2 of the sweep: costs[k2][algo][member],
// algorithms in fig3Algos order.
func fig3Costs(k3 float64, o Options) [][][]float64 {
	costs := make([][][]float64, len(K2Grid))
	for p, k2 := range K2Grid {
		// The plain GA is the ensemble; its competitors then run per member.
		cfg := o.config(k2, k3)
		costs[p] = sample(cfg, o.Trials, func(i int, nw *cold.Network) []float64 {
			return competitorCosts(nw, cfg.Params, o, i)
		})
	}
	return costs
}

// Fig3 reproduces Figure 3: the best cost found by each algorithm —
// random greedy, complete, mst(-hubs), greedy attachment, the plain GA and
// the initialised GA — across the k2 sweep, normalized by the initialised
// GA's result, with bootstrap confidence intervals over trials. One table
// per k3 value (the paper shows k3 = 0 and k3 = 10).
//
// Expected shape: every algorithm within ~1.25× of the initialised GA;
// different greedies win in different corners; the initialised GA is never
// beaten (it is seeded with every competitor's output).
func Fig3(k3 float64, o Options) *Table {
	o = o.normalize()
	ratios := fig3Costs(k3, o)
	for _, point := range ratios {
		init := slices.Clone(point[len(point)-1])
		for _, xs := range point {
			for i := range xs {
				xs[i] /= init[i]
			}
		}
	}
	return &Table{
		Title: fmt.Sprintf("Figure 3: relative best cost vs k2 (k0=10, k1=1, k3=%g, n=%d)", k3, o.N),
		Notes: []string{
			fmt.Sprintf("normalized by initialised GA; mean [95%% bootstrap CI] over %d trials", o.Trials),
		},
		Columns: append([]string{"k2"}, fig3Algos...),
		Rows:    ciRows(func(p int) string { return fmtF(K2Grid[p]) }, ratios, o, 999),
	}
}

// competitorCosts costs Figure 3's algorithms, in fig3Algos order, on the
// context of ensemble member i, generated under p: the greedy heuristics,
// the plain GA (the member itself) and the initialised GA. The initialised
// GA is seeded with *every* competitor's output — the heuristics and the
// plain GA's best — so it outperforms all of them over all parameter
// ranges, the paper's argument in §5. Its randomness and the heuristics'
// depend only on (o.Seed, i), so every k2 point draws the same.
func competitorCosts(nw *cold.Network, p cold.Params, o Options, i int) []float64 {
	e := evaluator(nw, p)
	plain := graphOf(nw)
	seed := stats.StreamSeed(uint64(o.Seed), fig3Tag, uint64(i))
	hs := heuristics.All(context.TODO(), e, rand.New(rand.NewSource(int64(seed))))
	costs := make([]float64, len(fig3Algos))
	costs[4] = e.Cost(plain)
	for _, h := range hs {
		if a := slices.Index(fig3Algos[:4], h.Name); a >= 0 {
			costs[a] = h.Cost
		}
	}
	s := core.SizedSettings(o.GAPop, o.GAGens)
	s.Seeds = append(heuristics.Graphs(hs), plain)
	init, err := core.Run(e, s, seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: initialised GA: %v", err))
	}
	costs[5] = init.BestCost
	return costs
}

// fig4Seconds returns the wall time of one serial cold.Generate at each
// size, the per-member sample of Figure 4 (one member per size).
func fig4Seconds(sizes []int, o Options) []float64 {
	secs := make([]float64, len(sizes))
	for p, n := range sizes {
		cfg := o.config(1e-4, 10)
		cfg.NumPoPs, cfg.Parallelism = n, 1
		start := time.Now()
		if _, err := cold.Generate(cfg); err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		secs[p] = time.Since(start).Seconds()
	}
	return secs
}

// Fig4 reproduces Figure 4: GA runtime versus the number of PoPs with
// T = M = 100, fitting the cubic coefficient and the log-log exponent. The
// paper reports O(n³MT) growth from the all-pairs shortest-path
// evaluation, assuming an O(n²) Dijkstra per source; the heap kernel on
// the GA's sparse candidates is O(n·m log n), so the measured exponent may
// fall below 3. The absolute coefficient is hardware- and
// language-specific, so only the shape is comparable.
func Fig4(sizes []int, o Options) *Table {
	o = o.normalize()
	if len(sizes) == 0 {
		sizes = []int{10, 20, 40, 60, 80}
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 4: GA runtime vs n (T=%d, M=%d)", o.GAGens, o.GAPop),
		Columns: []string{"n", "seconds", "seconds/n^3"},
		Notes:   []string{"paper: cubic growth, coefficient 2.3e-5 s/n^3 on 2014 hardware (Matlab)"},
	}
	var coeffs, logN, logS []float64
	for p, secs := range fig4Seconds(sizes, o) {
		n := sizes[p]
		c := secs / float64(n*n*n)
		coeffs = append(coeffs, c)
		logN = append(logN, math.Log(float64(n)))
		logS = append(logS, math.Log(secs))
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprintf("%.3f", secs), fmt.Sprintf("%.3g", c)})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("fitted coefficient (mean of s/n^3): %.3g; fitted exponent (least-squares slope of ln s on ln n): %.2f",
		stats.Mean(coeffs), slope(logN, logS)))
	return t
}

// slope is the least-squares slope of ys on xs.
func slope(xs, ys []float64) float64 {
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var sxy, sxx float64
	for i, x := range xs {
		sxy += (x - mx) * (ys[i] - my)
		sxx += (x - mx) * (x - mx)
	}
	return sxy / sxx
}

// bruteN is the §5 validation's network size: 2^15 labeled graphs, few
// enough to enumerate.
const bruteN = 6

// bruteParams are the §5 validation's cost parameters.
var bruteParams = []cold.Params{
	{K0: 10, K1: 1, K2: 1e-4, K3: 0},
	{K0: 10, K1: 1, K2: 1.6e-3, K3: 0},
	{K0: 10, K1: 1, K2: 1e-4, K3: 50},
}

// bruteCosts are the §5 validation's costs on one context: the
// brute-force optimum, the best of the heuristics that draw no randomness
// (the ones the initialised GA is seeded with whatever its stream), the
// plain GA and the initialised GA.
type bruteCosts struct {
	opt, heuristic, ga, init float64
}

// atOpt reports whether cost c attains the optimum opt.
func atOpt(c, opt float64) bool { return c <= opt*(1+1e-9) }

// bruteRun returns the §5 costs on o.Trials contexts of bruteN PoPs under
// p. The GA columns are the members of two ensembles that share a seed, the
// second with SeedWithHeuristics: the library samples a member's context
// from its seed alone and draws the heuristics from a separate stream, so
// member i of both ensembles is optimized on the same context. Brute
// force then runs once per context, one context per CPU.
func bruteRun(p cold.Params, o Options) []bruteCosts {
	cfg := o.config(p.K2, p.K3)
	cfg.NumPoPs, cfg.Params = bruteN, p
	plain := members(cfg, o.Trials)
	cfg.Optimizer.SeedWithHeuristics = true
	init := members(cfg, o.Trials)
	res := make([]bruteCosts, o.Trials)
	par.Each(runtime.GOMAXPROCS(0), o.Trials, func(_, i int) {
		e := evaluator(init[i], p)
		opt, err := heuristics.BruteForce(e)
		if err != nil {
			panic(err)
		}
		ctx := context.TODO()
		best := heuristics.Best([]heuristics.Result{heuristics.PureMST(e), heuristics.Clique(e), heuristics.Star(ctx, e),
			heuristics.Complete(ctx, e), heuristics.HubMST(ctx, e), heuristics.GreedyAttachment(ctx, e)})
		res[i] = bruteCosts{opt: opt.Cost, heuristic: best.Cost, ga: e.Cost(graphOf(plain[i])), init: e.Cost(graphOf(init[i]))}
	})
	return res
}

// Brute reproduces the §5 validation: on small contexts the (initialised)
// GA finds the brute-force optimum.
func Brute(o Options) *Table {
	o = o.normalize()
	t := &Table{
		Title:   fmt.Sprintf("§5 validation: GA vs brute-force optimum (n=%d)", bruteN),
		Columns: []string{"params", "member", "optimum", "best heuristic", "GA", "init-GA", "GA=opt", "init=opt"},
	}
	for _, p := range bruteParams {
		name := cost.Params(p).String()
		var gaHits, initHits int
		for i, c := range bruteRun(p, o) {
			gaOpt, initOpt := atOpt(c.ga, c.opt), atOpt(c.init, c.opt)
			if gaOpt {
				gaHits++
			}
			if initOpt {
				initHits++
			}
			t.Rows = append(t.Rows, []string{
				name, fmt.Sprint(i),
				fmtF(c.opt), fmtF(c.heuristic), fmtF(c.ga), fmtF(c.init),
				fmt.Sprint(gaOpt), fmt.Sprint(initOpt),
			})
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: GA=opt in %d/%d, init=opt in %d/%d", name, gaHits, o.Trials, initHits, o.Trials))
	}
	return t
}
