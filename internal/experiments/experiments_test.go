package experiments

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/stats"
	"github.com/networksynth/cold/internal/zoo"
)

// tiny returns options that make every experiment run in well under a
// second, for correctness testing (EXPERIMENTS.md uses larger runs).
func tiny() Options {
	return Options{Trials: 2, N: 10, GAPop: 16, GAGens: 10, Bootstrap: 50, Seed: 1}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	d := Defaults()
	if o != d {
		t.Errorf("normalize() = %+v, want defaults %+v", o, d)
	}
	o = Options{Trials: 3}.normalize()
	if o.Trials != 3 || o.N != d.N {
		t.Errorf("partial normalize wrong: %+v", o)
	}
}

func TestTablePrint(t *testing.T) {
	tab := &Table{
		Title:   "test",
		Notes:   []string{"a note"},
		Columns: []string{"x", "value"},
		Rows:    [][]string{{"1", "10"}, {"200", "3"}},
	}
	var buf bytes.Buffer
	if err := tab.Print(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== test ==") || !strings.Contains(out, "# a note") {
		t.Errorf("output missing header/notes:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Errorf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestFig1(t *testing.T) {
	counts := fig1Counts(tiny())
	if len(counts) != 5 {
		t.Fatalf("sizes = %d", len(counts))
	}
	// Parameter counts must grow with n and with d.
	var prev4 float64
	for p, point := range counts {
		c2, c3, c4 := stats.Mean(point[0]), stats.Mean(point[1]), stats.Mean(point[2])
		if !(c2 <= c3 && c3 <= c4) {
			t.Errorf("n=%d: counts %v, %v, %v not increasing in d", fig1Sizes[p], c2, c3, c4)
		}
		if c4 < prev4 {
			t.Errorf("d=4 count decreased with n: %v -> %v at n=%d", prev4, c4, fig1Sizes[p])
		}
		prev4 = c4
	}
}

func TestFig2(t *testing.T) {
	tab := Fig2(tiny())
	if len(tab.Rows) < 6 {
		t.Fatalf("expected input + 4 ER + >=1 match, got %d rows", len(tab.Rows))
	}
	if tab.Rows[0][0] != "input" || tab.Rows[0][1] != "true" {
		t.Errorf("input row wrong: %v", tab.Rows[0])
	}
	// All 3K matches must be isomorphic to the input.
	found := false
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], "3K-match") {
			found = true
			if row[4] != "true" {
				t.Errorf("3K match not isomorphic: %v", row)
			}
		}
	}
	if !found {
		t.Error("no 3K match rows")
	}
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "all isomorphic to input: true") {
		t.Errorf("notes = %v", tab.Notes)
	}
}

func TestTable1(t *testing.T) {
	tab := Table1(tiny())
	if len(tab.Rows) != 6 || len(tab.Columns) != 7 {
		t.Fatalf("shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
	// COLD must satisfy every criterion.
	for _, row := range tab.Rows {
		if row[6] != "Y" {
			t.Errorf("COLD column should be all Y: %v", row)
		}
	}
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "COLD 100%") {
		t.Errorf("notes = %v", tab.Notes)
	}
}

// TestFig3 checks the initialised GA's guarantee per member: it is seeded
// with every competitor's output, so on no member may any competitor beat
// it. The settings are ones where the plain GA beats all four heuristics
// on some members, so the check fails if the plain GA's best is left out
// of the seeds.
func TestFig3(t *testing.T) {
	o := Options{Trials: 4, N: 12, GAPop: 20, GAGens: 12, Bootstrap: 50, Seed: 1}
	costs := fig3Costs(0, o)
	if len(costs) != len(K2Grid) {
		t.Fatalf("points = %d", len(costs))
	}
	for p, point := range costs {
		if len(point) != len(fig3Algos) {
			t.Fatalf("algorithms = %d, want %d", len(point), len(fig3Algos))
		}
		init := point[len(point)-1]
		for i, c := range init {
			// The normalizer: the init-GA column reads exactly 1.
			if !(c > 0) || math.IsInf(c, 1) {
				t.Errorf("k2=%g member %d: init-GA cost %v", K2Grid[p], i, c)
			}
			for a, xs := range point[:len(point)-1] {
				if xs[i] < c {
					t.Errorf("k2=%g member %d: %s (%v) beat the initialised GA (%v)", K2Grid[p], i, fig3Algos[a], xs[i], c)
				}
			}
		}
	}
}

func TestFig4(t *testing.T) {
	secs := fig4Seconds([]int{6, 8}, tiny())
	if len(secs) != 2 {
		t.Fatalf("sizes = %d", len(secs))
	}
	for _, s := range secs {
		if s < 0 {
			t.Errorf("bad seconds %v", s)
		}
	}
}

// TestBrute checks the §5 validation as invariants and a rate rather than
// at fixed seeds: on every context the optimum bounds both GAs and the
// initialised GA matches or beats every heuristic it is seeded with, and
// over 30 contexts per parameter set the initialised GA finds the optimum
// at least as often as the lower edge of the 99% Wilson interval around
// the rate measured before the harness ran on the library's ensemble
// engine: 94, 69 and 100 hits in 100 contexts.
func TestBrute(t *testing.T) {
	o := tiny()
	o.Trials = 30
	measured := []int{94, 69, 100}
	for k, p := range bruteParams {
		t.Run(cost.Params(p).String(), func(t *testing.T) {
			t.Parallel()
			hits := 0
			for i, c := range bruteRun(p, o) {
				if c.opt > c.ga || c.opt > c.init || c.init > c.heuristic {
					t.Errorf("member %d: optimum %v, GA %v, init-GA %v, best heuristic %v", i, c.opt, c.ga, c.init, c.heuristic)
				}
				if atOpt(c.init, c.opt) {
					hits++
				}
			}
			if want := wilsonLower(measured[k], 100, 2.576) * float64(o.Trials); float64(hits) < want {
				t.Errorf("initialised GA found the optimum in %d of %d contexts, want >= %.1f", hits, o.Trials, want)
			}
		})
	}
}

// wilsonLower is the lower edge of the Wilson score interval for a rate
// of hits in n trials at normal quantile z.
func wilsonLower(hits, n int, z float64) float64 {
	p, fn := float64(hits)/float64(n), float64(n)
	centre := p + z*z/(2*fn)
	margin := z * math.Sqrt(p*(1-p)/fn+z*z/(4*fn*fn))
	return (centre - margin) / (1 + z*z/fn)
}

// TestHarnessesIndependentOfGOMAXPROCS pins that the harnesses print the
// same bytes however many CPUs the ensemble engine and Figure 3's
// competitors spread over. Figure 4 prints timings and is left out.
func TestHarnessesIndependentOfGOMAXPROCS(t *testing.T) {
	render := func() string {
		var b bytes.Buffer
		sweep := TunabilitySweep(tiny())
		for _, tab := range []*Table{Fig3(10, tiny()), sweep.Fig5(), sweep.Fig7(), ContextSensitivity(tiny())} {
			if err := tab.Print(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := render()
	runtime.GOMAXPROCS(2)
	if two := render(); two != one {
		t.Errorf("GOMAXPROCS 1 and 2 print different tables:\n%s\n---\n%s", one, two)
	}
}

// TestSweepPointsShareContexts pins the common-random-numbers design: two
// points of a sweep, and the initialised GA's ensemble beside the plain
// one, optimize member i on bit-identical points and populations.
func TestSweepPointsShareContexts(t *testing.T) {
	o := tiny()
	contexts := func(cfg cold.Config) (pts [][]cold.Point, pops [][]float64) {
		ensemble(cfg, o.Trials, func(_ int, nw *cold.Network) {
			pts = append(pts, nw.Points)
			pops = append(pops, nw.Populations)
		})
		return pts, pops
	}
	pts1, pops1 := contexts(o.config(K2Grid[0], 0))
	cfg := o.config(K2Grid[len(K2Grid)-1], 10)
	cfg.Optimizer.SeedWithHeuristics = true
	pts2, pops2 := contexts(cfg)
	if !reflect.DeepEqual(pts1, pts2) || !reflect.DeepEqual(pops1, pops2) {
		t.Errorf("sweep points see different contexts:\n%v %v\n%v %v", pts1, pops1, pts2, pops2)
	}
}

func TestTunabilitySweep(t *testing.T) {
	r := TunabilitySweep(tiny())
	f5, f6, f7 := r.Fig5(), r.Fig6(), r.Fig7()
	for _, tab := range []*Table{f5, f6, f7} {
		if len(tab.Rows) != len(K2Grid) {
			t.Fatalf("%s: rows = %d", tab.Title, len(tab.Rows))
		}
		if len(tab.Columns) != len(K3Grid)+1 {
			t.Fatalf("%s: columns = %d", tab.Title, len(tab.Columns))
		}
	}
	// Qualitative check at tiny scale: degree at largest k2 (k3=0) should
	// be >= degree at smallest k2 (k3=0). Outer index 0 is k3=0.
	first := stats.Mean(r.samples[0][0])
	last := stats.Mean(r.samples[len(K2Grid)-1][0])
	if last < first-0.3 {
		t.Errorf("degree should not fall with k2: %v -> %v", first, last)
	}
}

func TestHubbinessSweep(t *testing.T) {
	r := HubbinessSweep(tiny())
	f8b, f9 := r.Fig8b(), r.Fig9()
	if len(f8b.Rows) != len(K3Sweep) || len(f9.Rows) != len(K3Sweep) {
		t.Fatal("row counts wrong")
	}
	// For the largest k2 (last outer value) the topology is meshy at k3=1
	// and collapses toward a star at k3=1000: hubs fall, CVND rises. At
	// the tiny test scale the smallest k2 is not discriminative (at n=10 a
	// near-star is optimal even at k3=1), so assert on the mesh end where
	// the trend is structural.
	smallK3 := r.samples[(len(K2Set4)-1)*len(K3Sweep)]
	bigK3 := r.samples[len(K2Set4)*len(K3Sweep)-1]
	const cvnd, hubs = 0, 1
	if hubsSmall, hubsBig := stats.Mean(smallK3[hubs]), stats.Mean(bigK3[hubs]); hubsBig >= hubsSmall {
		t.Errorf("hub count should collapse with k3: %v -> %v", hubsSmall, hubsBig)
	}
	if cvSmall, cvBig := stats.Mean(smallK3[cvnd]), stats.Mean(bigK3[cvnd]); cvBig <= cvSmall {
		t.Errorf("CVND should grow with k3: %v -> %v", cvSmall, cvBig)
	}
}

func TestFig8a(t *testing.T) {
	cvs := zoo.CVNDs(zoo.Ensemble(60, rand.New(rand.NewSource(2))))
	_, cdf := fig8aQuantiles(cvs)
	if len(cdf) != 8 {
		t.Fatalf("quantiles = %d", len(cdf))
	}
	// The CDF must be non-decreasing.
	var prev float64
	for _, c := range cdf {
		if c < prev {
			t.Errorf("CDF decreased: %v", cdf)
		}
		prev = c
	}
}

func TestContextSensitivity(t *testing.T) {
	tab := ContextSensitivity(tiny())
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	names := []string{"uniform+exp (default)", "bursty+exp", "long-thin+exp", "uniform+pareto(1.5)", "uniform+pareto(10/9)"}
	for i, row := range tab.Rows {
		if row[0] != names[i] {
			t.Errorf("row %d name %q", i, row[0])
		}
	}
}

func TestRouterSpread(t *testing.T) {
	tab := RouterSpread(tiny())
	names := []string{"exponential", "pareto(1.5)", "pareto(10/9)"}
	for i, row := range tab.Rows {
		if row[0] != names[i] {
			t.Errorf("row %d = %q", i, row[0])
		}
	}
	samples := routerSamples(tiny())
	if len(samples) != 3 || len(tab.Rows) != 3 {
		t.Fatalf("models = %d, rows = %d", len(samples), len(tab.Rows))
	}
	for i, point := range samples {
		// Totals must be at least one router per PoP.
		if total := stats.Mean(point[0]); total < float64(tiny().N) {
			t.Errorf("%s: total routers %v below PoP count", names[i], total)
		}
	}
}

func TestExtraFeatures(t *testing.T) {
	samples := extraSamples(0, tiny())
	if len(samples) != len(K2Grid) {
		t.Fatalf("points = %d", len(samples))
	}
	for p, point := range samples {
		if len(point) != 5 {
			t.Fatalf("metrics = %d", len(point))
		}
		// Average path length must be at least 1 for n >= 2.
		if apl := point[1]; len(apl) > 0 && stats.Mean(apl) < 1 {
			t.Errorf("k2=%g: avg path %v < 1", K2Grid[p], apl)
		}
	}
}
