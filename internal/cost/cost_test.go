package cost

import (
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

// lineContext builds a 3-PoP context on a line at x = 0, 1, 2 with unit
// populations (so every pair demands exactly `scale`).
func lineContext(t *testing.T, params Params) *Evaluator {
	t.Helper()
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	tm := traffic.Gravity([]float64{1, 1, 1}, 1)
	e, err := NewEvaluator(geom.DistanceMatrix(pts), tm, params)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randomContext(t testing.TB, n int, params Params, seed int64) *Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewUniform().Sample(n, rng)
	pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(n, rng)
	e, err := NewEvaluator(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1), params)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{K0: -1, K1: 1},
		{K0: 1, K1: math.NaN()},
		{K2: math.Inf(1)},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Params %+v should fail validation", p)
		}
	}
}

func TestParamsString(t *testing.T) {
	got := Params{K0: 10, K1: 1, K2: 0.0001, K3: 5}.String()
	if got != "k0=10 k1=1 k2=0.0001 k3=5" {
		t.Errorf("String = %q", got)
	}
}

func TestNewEvaluatorErrors(t *testing.T) {
	tm := traffic.Gravity([]float64{1, 1}, 1)
	if _, err := NewEvaluator([][]float64{{0}}, tm, DefaultParams()); err == nil {
		t.Error("size mismatch should error")
	}
	if _, err := NewEvaluator([][]float64{{0, 1}, {1}}, tm, DefaultParams()); err == nil {
		t.Error("ragged matrix should error")
	}
	if _, err := NewEvaluator(geom.DistanceMatrix([]geom.Point{{}, {X: 1}}), tm, Params{K0: -1}); err == nil {
		t.Error("bad params should error")
	}
}

func TestCostPathByHand(t *testing.T) {
	// Path 0-1-2 on the line: lengths 1 and 1. Demands: each pair 1.
	// Link (0,1) carries pairs {0,1} and {0,2}: w = 2.
	// Link (1,2) carries pairs {1,2} and {0,2}: w = 2.
	// Node 1 is the only core node.
	p := Params{K0: 10, K1: 1, K2: 0.5, K3: 7}
	e := lineContext(t, p)
	g, _ := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	want := 2*(10+1*1+0.5*1*2) + 7*1
	if got := e.Cost(g); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Cost = %v, want %v", got, want)
	}
	ev := e.Evaluate(g)
	if !ev.Connected {
		t.Fatal("path should be connected")
	}
	if math.Abs(ev.Total-want) > 1e-12 {
		t.Fatalf("Evaluate Total = %v, want %v", ev.Total, want)
	}
	if ev.CoreCount != 1 {
		t.Fatalf("CoreCount = %d, want 1", ev.CoreCount)
	}
	for i, w := range ev.Capacities {
		if w != 2 {
			t.Fatalf("capacity[%d] = %v, want 2", i, w)
		}
	}
	if ev.NodeCost != 7 {
		t.Fatalf("NodeCost = %v", ev.NodeCost)
	}
}

// TestNonFiniteSumIsInf: a cost sum that overflows — to +Inf, or to NaN
// through 0·Inf — comes back as +Inf from every entry point, so costs stay
// totally ordered.
func TestNonFiniteSumIsInf(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name   string
		dist   float64
		pop    float64
		params Params
	}{
		{"infinite length", inf, 1, Params{K0: 10, K1: 1, K2: 1e-4}},
		{"zero times infinite length", inf, 1, Params{K0: 10, K1: 0, K2: 1e-4}},
		{"bandwidth overflow", 1, 1e3, Params{K0: 10, K1: 1, K2: 1e306}},
	}
	for _, tc := range cases {
		dist := [][]float64{{0, tc.dist}, {tc.dist, 0}}
		e := MustNewEvaluator(dist, traffic.Gravity([]float64{tc.pop, tc.pop}, 1), tc.params)
		g := graph.Complete(2)
		for name, c := range map[string]float64{
			"Cost":           e.Cost(g),
			"CostUncached":   e.CostUncached(g),
			"Evaluate.Total": e.Evaluate(g).Total,
		} {
			if !math.IsInf(c, 1) {
				t.Errorf("%s: %s = %v, want +Inf", tc.name, name, c)
			}
		}
	}
}

func TestEvaluateLinearLinkTotal(t *testing.T) {
	e := randomContext(t, 10, DefaultParams(), 5)
	rng := rand.New(rand.NewSource(5))
	g := randomConnected(rng, 10, 0.3, e.Dist())
	ev := e.Evaluate(g)
	want := ev.ExistenceCost + ev.LengthCost + ev.BandwidthCost
	if math.Abs(ev.LinkTotal-want) > 1e-9*want {
		t.Fatalf("LinkTotal %v != component sum %v", ev.LinkTotal, want)
	}
}

func TestCostTriangleShortcuts(t *testing.T) {
	// Full triangle on the line context: direct 0-2 link has length 2 and
	// equals the 0-1-2 path length, but Dijkstra's lower-index tie break
	// routes 0→2 via... direct edge vs two-hop: both length 2. Determinism
	// matters more than which; verify loads sum correctly either way via
	// the equation (1) identity below. Here check clique has 3 core nodes.
	p := Params{K0: 1, K1: 1, K2: 1, K3: 1}
	e := lineContext(t, p)
	g := graph.Complete(3)
	ev := e.Evaluate(g)
	if ev.CoreCount != 3 {
		t.Fatalf("clique core count = %d", ev.CoreCount)
	}
	if ev.NodeCost != 3 {
		t.Fatalf("clique node cost = %v", ev.NodeCost)
	}
}

func TestDisconnectedIsInfinite(t *testing.T) {
	e := lineContext(t, DefaultParams())
	g := graph.New(3)
	g.AddEdge(0, 1)
	if !math.IsInf(e.Cost(g), 1) {
		t.Fatal("disconnected graph must cost +Inf")
	}
	ev := e.Evaluate(g)
	if ev.Connected || !math.IsInf(ev.Total, 1) {
		t.Fatal("Evaluate should flag disconnection")
	}
}

func TestSingleNodeContext(t *testing.T) {
	tm := traffic.Gravity([]float64{5}, 1)
	e, err := NewEvaluator([][]float64{{0}}, tm, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Cost(graph.New(1)); got != 0 {
		t.Fatalf("single node cost = %v, want 0", got)
	}
}

// TestEquationOneIdentity verifies Σ k2·ℓ_i·w_i == k2·Σ_r t_r·L_r, the
// identity the paper uses to justify shortest-path routing (equation 1).
func TestEquationOneIdentity(t *testing.T) {
	p := Params{K0: 10, K1: 1, K2: 3e-4, K3: 0}
	for seed := int64(0); seed < 10; seed++ {
		e := randomContext(t, 18, p, seed)
		rng := rand.New(rand.NewSource(seed + 100))
		g := randomConnected(rng, 18, 0.15, e.Dist())
		ev := e.Evaluate(g)
		var lw float64
		for i := range ev.Edges {
			lw += ev.Lengths[i] * ev.Capacities[i]
		}
		rc := e.RouteCost(g)
		if math.Abs(lw-rc) > 1e-6*math.Max(1, math.Abs(rc)) {
			t.Fatalf("seed %d: Σℓw = %v, Σ t_r L_r = %v", seed, lw, rc)
		}
		if math.Abs(ev.BandwidthCost-p.K2*rc) > 1e-6*math.Max(1, p.K2*rc) {
			t.Fatalf("seed %d: bandwidth cost %v != k2·routecost %v", seed, ev.BandwidthCost, p.K2*rc)
		}
	}
}

// TestTotalLoadConservation: summing capacity over the edges incident to a
// leaf node must equal the leaf's total demand (all its traffic crosses its
// single link).
func TestLeafLoadIsRowSum(t *testing.T) {
	e := randomContext(t, 12, DefaultParams(), 4)
	// Star topology: node 0 is the hub.
	g := graph.New(12)
	for i := 1; i < 12; i++ {
		g.AddEdge(0, i)
	}
	ev := e.Evaluate(g)
	rows := e.Traffic().RowSums()
	for idx, edge := range ev.Edges {
		leaf := edge.J // edges are (0, j)
		if math.Abs(ev.Capacities[idx]-rows[leaf]) > 1e-9*rows[leaf] {
			t.Fatalf("leaf %d capacity %v != row sum %v", leaf, ev.Capacities[idx], rows[leaf])
		}
	}
}

func TestRoutingPathAndNextHop(t *testing.T) {
	e := lineContext(t, DefaultParams())
	g, _ := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	ev := e.Evaluate(g)
	p := ev.Routing.Path(0, 2)
	if len(p) != 3 || p[0] != 0 || p[1] != 1 || p[2] != 2 {
		t.Fatalf("Path(0,2) = %v", p)
	}
	if got := ev.Routing.NextHop(0, 2); got != 1 {
		t.Fatalf("NextHop(0,2) = %d", got)
	}
	if got := ev.Routing.NextHop(2, 0); got != 1 {
		t.Fatalf("NextHop(2,0) = %d", got)
	}
	if got := ev.Routing.NextHop(1, 1); got != -1 {
		t.Fatalf("NextHop(1,1) = %d", got)
	}
	if got := ev.Routing.Path(1, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Path(1,1) = %v", got)
	}
}

func TestRoutingUnreachable(t *testing.T) {
	e := lineContext(t, DefaultParams())
	g := graph.New(3)
	g.AddEdge(0, 1)
	ev := e.Evaluate(g)
	if p := ev.Routing.Path(0, 2); p != nil {
		t.Fatalf("unreachable path = %v, want nil", p)
	}
	if h := ev.Routing.NextHop(0, 2); h != -1 {
		t.Fatalf("unreachable next hop = %d", h)
	}
}

func TestRoutingShortestByLength(t *testing.T) {
	// Square: 0=(0,0), 1=(1,0), 2=(1,1), 3=(0,1); edges around the ring
	// plus a diagonal 0-2 (length √2 < 2). Route 0→2 must use the diagonal.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1}, {X: 1, Y: 1}, {Y: 1}}
	tm := traffic.Gravity([]float64{1, 1, 1, 1}, 1)
	e := MustNewEvaluator(geom.DistanceMatrix(pts), tm, DefaultParams())
	g, _ := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	ev := e.Evaluate(g)
	p := ev.Routing.Path(0, 2)
	if len(p) != 2 {
		t.Fatalf("Path(0,2) = %v, want direct diagonal", p)
	}
	if math.Abs(ev.Routing.PathDist[0][2]-math.Sqrt2) > 1e-12 {
		t.Fatalf("PathDist(0,2) = %v", ev.Routing.PathDist[0][2])
	}
}

func TestCostCache(t *testing.T) {
	e := randomContext(t, 10, DefaultParams(), 9)
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(rng, 10, 0.3, e.Dist())
	c1 := e.Cost(g)
	c2 := e.Cost(g.Clone())
	if c1 != c2 {
		t.Fatalf("cache returned different cost: %v vs %v", c1, c2)
	}
	st := e.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache stats = %d hits, %d misses; want 1, 1", st.CacheHits, st.CacheMisses)
	}
}

func TestCostCacheDisabled(t *testing.T) {
	e := randomContext(t, 8, DefaultParams(), 9)
	e.SetCacheLimit(0)
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(rng, 8, 0.4, e.Dist())
	c1, c2 := e.Cost(g), e.Cost(g)
	if c1 != c2 {
		t.Fatal("uncached costs differ")
	}
	if e.Stats().CacheHits != 0 {
		t.Fatal("disabled cache recorded hits")
	}
}

func TestCostCacheReset(t *testing.T) {
	e := randomContext(t, 8, DefaultParams(), 10)
	e.SetCacheLimit(4)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		g := randomConnected(rng, 8, 0.4, e.Dist())
		e.Cost(g)
	}
	// No assertion beyond not crashing and staying bounded; cache resets
	// internally. Sanity: recompute a fresh graph still works.
	g := randomConnected(rng, 8, 0.4, e.Dist())
	if math.IsNaN(e.Cost(g)) {
		t.Fatal("NaN cost after cache churn")
	}
}

func TestCostMatchesEvaluate(t *testing.T) {
	p := Params{K0: 2, K1: 1.5, K2: 2e-4, K3: 11}
	for seed := int64(0); seed < 8; seed++ {
		e := randomContext(t, 15, p, seed)
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 15, 0.2, e.Dist())
		fast := e.Cost(g)
		full := e.Evaluate(g).Total
		if math.Abs(fast-full) > 1e-9*math.Max(1, full) {
			t.Fatalf("seed %d: Cost=%v Evaluate=%v", seed, fast, full)
		}
	}
}

func TestCostWrongSizePanics(t *testing.T) {
	e := lineContext(t, DefaultParams())
	defer func() {
		if recover() == nil {
			t.Error("wrong graph size should panic")
		}
	}()
	e.Cost(graph.New(5))
}

func TestMoreEdgesNeverIncreaseRouteCost(t *testing.T) {
	// Adding an edge can only shorten shortest paths, so Σ t_r L_r is
	// non-increasing in the edge set.
	e := randomContext(t, 12, DefaultParams(), 5)
	rng := rand.New(rand.NewSource(8))
	g := randomConnected(rng, 12, 0.2, e.Dist())
	base := e.RouteCost(g)
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			if g.HasEdge(i, j) {
				continue
			}
			aug := g.Clone()
			aug.AddEdge(i, j)
			if rc := e.RouteCost(aug); rc > base+1e-9 {
				t.Fatalf("adding edge (%d,%d) increased route cost %v → %v", i, j, base, rc)
			}
		}
	}
}

func TestCliqueMinimizesRouteCost(t *testing.T) {
	e := randomContext(t, 10, DefaultParams(), 6)
	clique := graph.Complete(10)
	cliqueRC := e.RouteCost(clique)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		g := randomConnected(rng, 10, 0.3, e.Dist())
		if e.RouteCost(g) < cliqueRC-1e-9 {
			t.Fatal("some topology beat the clique's route cost")
		}
	}
}

// TestCostDeltaMatchesCost pins the deprecated compatibility surface that
// older callers (perfbench among them) still compile against: CostDelta is
// Cost whatever base and changed list it is handed — memoized, +Inf for a
// disconnected graph — and Stats reports no delta evaluations and no
// fallbacks.
func TestCostDeltaMatchesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(1000))
	for seed := int64(0); seed < 8; seed++ {
		n := 6 + rng.Intn(30)
		e := randomContext(t, n, DefaultParams(), seed)
		ref := randomContext(t, n, DefaultParams(), seed)
		base := randomConnected(rng, n, 0.3, e.Dist())
		child := base.Clone()
		child.SetEdge(0, n-1, !child.HasEdge(0, n-1))
		for _, changed := range [][]graph.Edge{{{I: 0, J: n - 1}}, nil} {
			if got, want := e.CostDelta(base, child, changed), ref.Cost(child); got != want {
				t.Fatalf("seed %d: CostDelta %v != Cost %v", seed, got, want)
			}
		}
		iso := graph.New(n)
		if c := e.CostDelta(base, iso, nil); !math.IsInf(c, 1) {
			t.Fatalf("seed %d: disconnected CostDelta = %v, want +Inf", seed, c)
		}
		st := e.Stats()
		if st.CacheHits != 1 || st.CacheMisses != 2 {
			t.Fatalf("seed %d: CostDelta must share Cost's memo: %d hits, %d misses", seed, st.CacheHits, st.CacheMisses)
		}
		if st.DeltaEvals != 0 || st.Fallbacks.Total() != 0 {
			t.Fatalf("seed %d: deprecated counters = %d/%d, want 0/0", seed, st.DeltaEvals, st.Fallbacks.Total())
		}
	}
}

// randomConnected builds a random graph and repairs connectivity so cost is
// finite.
func randomConnected(rng *rand.Rand, n int, p float64, dist [][]float64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	g.Connect(dist)
	return g
}

func BenchmarkCostN30(b *testing.B) {
	e := randomContext(b, 30, DefaultParams(), 1)
	e.SetCacheLimit(0)
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 30, 0.1, e.Dist())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cost(g)
	}
}

func BenchmarkCostN100(b *testing.B) {
	e := randomContext(b, 100, DefaultParams(), 1)
	e.SetCacheLimit(0)
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 100, 0.04, e.Dist())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cost(g)
	}
}

func BenchmarkCostCached(b *testing.B) {
	e := randomContext(b, 30, DefaultParams(), 1)
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 30, 0.1, e.Dist())
	e.Cost(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cost(g)
	}
}
