package randgraph

import (
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/metrics"
)

func TestERDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, p := 60, 0.2
	var total int
	const trials = 50
	for i := 0; i < trials; i++ {
		total += ER(n, p, rng).NumEdges()
	}
	mean := float64(total) / trials
	want := p * float64(n*(n-1)/2)
	if math.Abs(mean-want) > want*0.08 {
		t.Errorf("ER mean edges = %v, want ~%v", mean, want)
	}
}

func TestEREdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if g := ER(10, 0, rng); g.NumEdges() != 0 {
		t.Error("p=0 should give no edges")
	}
	if g := ER(10, 1, rng); g.NumEdges() != 45 {
		t.Error("p=1 should give the complete graph")
	}
	if g := ER(0, 0.5, rng); g.N() != 0 {
		t.Error("n=0 mishandled")
	}
}

func TestERWithEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{0, 1, 10, 45} {
		g := ERWithEdges(10, m, rng)
		if g.NumEdges() != m {
			t.Errorf("ERWithEdges(10, %d) has %d edges", m, g.NumEdges())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("too many edges should panic")
		}
	}()
	ERWithEdges(4, 7, rng)
}

func TestERWithEdgesUniformish(t *testing.T) {
	// Every edge should appear with roughly equal frequency m/C(n,2).
	rng := rand.New(rand.NewSource(4))
	n, m, trials := 8, 10, 4000
	counts := map[[2]int]int{}
	for i := 0; i < trials; i++ {
		for _, e := range ERWithEdges(n, m, rng).Edges() {
			counts[[2]int{e.I, e.J}]++
		}
	}
	want := float64(trials) * float64(m) / 28
	for pair, c := range counts {
		if math.Abs(float64(c)-want) > want*0.2 {
			t.Errorf("edge %v appeared %d times, want ~%v", pair, c, want)
		}
	}
}

func TestWaxmanDistanceBias(t *testing.T) {
	// With small beta, shorter edges must be much more likely.
	rng := rand.New(rand.NewSource(5))
	pts := geom.NewUniform().Sample(40, rng)
	dist := geom.DistanceMatrix(pts)
	var shortCount, longCount, shortTotal, longTotal int
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		g := Waxman(pts, 0.9, 0.12, rng)
		for i := 0; i < 40; i++ {
			for j := i + 1; j < 40; j++ {
				if dist[i][j] < 0.25 {
					shortTotal++
					if g.HasEdge(i, j) {
						shortCount++
					}
				} else if dist[i][j] > 0.75 {
					longTotal++
					if g.HasEdge(i, j) {
						longCount++
					}
				}
			}
		}
	}
	shortP := float64(shortCount) / float64(shortTotal)
	longP := float64(longCount) / float64(longTotal)
	if shortP < 4*longP {
		t.Errorf("Waxman short-edge prob %v not >> long-edge prob %v", shortP, longP)
	}
}

func TestWaxmanAlphaScales(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := geom.NewUniform().Sample(30, rng)
	var lo, hi int
	for i := 0; i < 30; i++ {
		lo += Waxman(pts, 0.2, 0.3, rng).NumEdges()
		hi += Waxman(pts, 0.8, 0.3, rng).NumEdges()
	}
	if hi <= lo {
		t.Errorf("alpha=0.8 (%d) should give more edges than alpha=0.2 (%d)", hi, lo)
	}
}

func TestWaxmanDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if g := Waxman(nil, 0.5, 0.5, rng); g.N() != 0 {
		t.Error("empty Waxman mishandled")
	}
	// Coincident points must not divide by zero.
	pts := []geom.Point{{X: 0.5, Y: 0.5}, {X: 0.5, Y: 0.5}, {X: 0.5, Y: 0.5}}
	g := Waxman(pts, 1, 0.5, rng)
	if g.N() != 3 {
		t.Error("coincident Waxman mishandled")
	}
}

func TestPLRGShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g, err := PLRG(300, 2.2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 300 {
		t.Fatalf("n = %d", g.N())
	}
	// Power-law degree sequences are strongly right-skewed: CVND well
	// above that of an ER graph with similar density.
	plCV := metrics.DegreeCV(g)
	er := ER(300, float64(2*g.NumEdges())/float64(300*299), rng)
	erCV := metrics.DegreeCV(er)
	if plCV < 1.5*erCV {
		t.Errorf("PLRG CVND %v should far exceed ER CVND %v", plCV, erCV)
	}
	// The max degree should be much larger than the median.
	ds := g.Degrees()
	maxD := 0
	for _, d := range ds {
		if d > maxD {
			maxD = d
		}
	}
	if maxD < 10 {
		t.Errorf("PLRG max degree %d suspiciously small", maxD)
	}
}

func TestPLRGErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if _, err := PLRG(10, 1.0, 1, rng); err == nil {
		t.Error("exponent <= 1 should error")
	}
	if _, err := PLRG(10, 2.5, 0, rng); err == nil {
		t.Error("min degree 0 should error")
	}
	g, err := PLRG(1, 2.5, 1, rng)
	if err != nil || g.N() != 1 || g.NumEdges() != 0 {
		t.Error("n=1 PLRG mishandled")
	}
}

func TestPLRGSimpleGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g, err := PLRG(100, 2.1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		if g.HasEdge(i, i) {
			t.Fatal("self loop in PLRG")
		}
	}
}

func TestBarabasiAlbert(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g, err := BarabasiAlbert(200, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 200 {
		t.Fatalf("n = %d", g.N())
	}
	// Edge count: seed clique C(3,2)=3 + (n-3)*m.
	want := 3 + (200-3)*2
	if g.NumEdges() != want {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), want)
	}
	if !g.IsConnected() {
		t.Fatal("BA graphs are connected by construction")
	}
	// Preferential attachment yields heavy right tail: max degree well
	// above the mean.
	maxD, sum := 0, 0
	for _, d := range g.Degrees() {
		sum += d
		if d > maxD {
			maxD = d
		}
	}
	mean := float64(sum) / 200
	if float64(maxD) < 4*mean {
		t.Errorf("max degree %d not heavy-tailed vs mean %.1f", maxD, mean)
	}
}

func TestBarabasiAlbertEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	if _, err := BarabasiAlbert(10, 0, rng); err == nil {
		t.Error("m=0 should error")
	}
	g, err := BarabasiAlbert(0, 2, rng)
	if err != nil || g.N() != 0 {
		t.Error("n=0 mishandled")
	}
	g, err = BarabasiAlbert(2, 3, rng)
	if err != nil || g.NumEdges() != 1 {
		t.Errorf("n smaller than seed mishandled: %v", g)
	}
}

// TestBarabasiAlbertDeterministic pins that equal rng seeds give identical
// graphs. The old implementation appended attachment targets in map
// iteration order, which perturbed the stub list — the sampling
// distribution for every later node — so repeated runs diverged.
func TestBarabasiAlbertDeterministic(t *testing.T) {
	build := func() *graph.Graph {
		g, err := BarabasiAlbert(60, 2, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ref := build()
	for i := 0; i < 20; i++ {
		g := build()
		if ref.DiffCount(g) != 0 {
			t.Fatalf("run %d: BA graph differs under an identical seed", i)
		}
	}
}
