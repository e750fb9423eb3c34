package cost

// Property-style invariant tests for the evaluator: relabeling symmetry,
// scaling behaviour and routing-tree structure.

import (
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/traffic"
)

// TestCostPermutationInvariance: relabeling the PoPs (and permuting the
// context consistently) must not change the cost — the objective is a
// function of the embedded network, not of node identities.
func TestCostPermutationInvariance(t *testing.T) {
	p := Params{K0: 10, K1: 1, K2: 3e-4, K3: 12}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		pts := geom.NewUniform().Sample(n, rng)
		pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(n, rng)
		g := randomConnected(rng, n, 0.3, geom.DistanceMatrix(pts))

		perm := rng.Perm(n)
		permPts := make([]geom.Point, n)
		permPops := make([]float64, n)
		for i := 0; i < n; i++ {
			permPts[perm[i]] = pts[i]
			permPops[perm[i]] = pops[i]
		}
		e1 := MustNewEvaluator(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1), p)
		e2 := MustNewEvaluator(geom.DistanceMatrix(permPts), traffic.Gravity(permPops, 1), p)
		c1 := e1.Cost(g)
		c2 := e2.Cost(g.Permute(perm))
		if math.Abs(c1-c2) > 1e-9*math.Max(1, c1) {
			t.Fatalf("seed %d: cost changed under relabeling: %v vs %v", seed, c1, c2)
		}
	}
}

// TestEvaluateMatchesCostExactly: the full breakdown and the memoized fast
// path share one routing sweep and one fused accumulation order, so their
// totals must agree bit for bit — no tolerance. A tolerance here would let
// the two code paths silently drift apart.
func TestEvaluateMatchesCostExactly(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(12)
		pts := geom.NewUniform().Sample(n, rng)
		pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(n, rng)
		p := Params{K0: 10, K1: 1, K2: 3e-4, K3: 12}
		e := MustNewEvaluator(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1), p)
		g := randomConnected(rng, n, 0.3, e.Dist())
		ev := e.Evaluate(g)
		if c := e.Cost(g); ev.Total != c {
			t.Fatalf("seed %d: Evaluate total %v != Cost %v (diff %g)", seed, ev.Total, c, ev.Total-c)
		}
		if sum := ev.LinkTotal + ev.NodeCost; ev.Total != sum {
			t.Fatalf("seed %d: Total %v != LinkTotal+NodeCost %v", seed, ev.Total, sum)
		}
	}
}

// TestEvaluateDisconnectedKeepsRouting: on a disconnected graph Evaluate
// reports infinite cost but must still return full per-source routing
// tables, usable within each component.
func TestEvaluateDisconnectedKeepsRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 10
	pts := geom.NewUniform().Sample(n, rng)
	pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(n, rng)
	e := MustNewEvaluator(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1), DefaultParams())
	g := randomConnected(rng, n, 0.3, e.Dist())
	// Isolate node 0 entirely.
	for j := 1; j < n; j++ {
		g.RemoveEdge(0, j)
	}
	ev := e.Evaluate(g)
	if ev.Connected || !math.IsInf(ev.Total, 1) {
		t.Fatalf("disconnected graph evaluated as connected (total %v)", ev.Total)
	}
	if len(ev.Routing.PathDist) != n || len(ev.Routing.Parent) != n {
		t.Fatalf("routing tables incomplete: %d/%d sources", len(ev.Routing.PathDist), n)
	}
	for s := 0; s < n; s++ {
		if len(ev.Routing.PathDist[s]) != n {
			t.Fatalf("source %d routing table missing", s)
		}
	}
	// Within the big component the tables are still usable.
	if math.IsInf(ev.Routing.PathDist[1][2], 1) {
		t.Fatal("intra-component path lost")
	}
	if !math.IsInf(ev.Routing.PathDist[1][0], 1) {
		t.Fatal("isolated node reported reachable")
	}
}

// TestTrafficScalingOnlyScalesBandwidth: multiplying the traffic matrix by
// s multiplies exactly the bandwidth component by s.
func TestTrafficScalingOnlyScalesBandwidth(t *testing.T) {
	p := Params{K0: 10, K1: 1, K2: 3e-4, K3: 5}
	rng := rand.New(rand.NewSource(3))
	pts := geom.NewUniform().Sample(12, rng)
	pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(12, rng)
	g := randomConnected(rng, 12, 0.25, geom.DistanceMatrix(pts))

	e1 := MustNewEvaluator(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1), p)
	e5 := MustNewEvaluator(geom.DistanceMatrix(pts), traffic.Gravity(pops, 5), p)
	ev1, ev5 := e1.Evaluate(g), e5.Evaluate(g)
	if math.Abs(ev5.BandwidthCost-5*ev1.BandwidthCost) > 1e-9*math.Max(1, ev5.BandwidthCost) {
		t.Errorf("bandwidth cost %v != 5× %v", ev5.BandwidthCost, ev1.BandwidthCost)
	}
	if ev5.ExistenceCost != ev1.ExistenceCost || ev5.LengthCost != ev1.LengthCost || ev5.NodeCost != ev1.NodeCost {
		t.Error("non-bandwidth components changed under traffic scaling")
	}
}

// TestRoutingFormsTree: each source's parent pointers must form a tree
// rooted at the source, spanning all reachable nodes, with monotone
// distances along parent chains.
func TestRoutingFormsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := geom.NewUniform().Sample(15, rng)
	pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(15, rng)
	e := MustNewEvaluator(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1), DefaultParams())
	g := randomConnected(rng, 15, 0.2, e.Dist())
	ev := e.Evaluate(g)
	for s := 0; s < 15; s++ {
		for v := 0; v < 15; v++ {
			if v == s {
				if ev.Routing.Parent[s][v] != -1 {
					t.Fatalf("source %d has a parent", s)
				}
				continue
			}
			p := int(ev.Routing.Parent[s][v])
			if p < 0 {
				t.Fatalf("node %d unreachable from %d in connected graph", v, s)
			}
			if !g.HasEdge(p, v) {
				t.Fatalf("parent edge (%d,%d) not in graph", p, v)
			}
			if ev.Routing.PathDist[s][p] >= ev.Routing.PathDist[s][v] {
				t.Fatalf("distance not increasing along tree: d[%d]=%v >= d[%d]=%v",
					p, ev.Routing.PathDist[s][p], v, ev.Routing.PathDist[s][v])
			}
			// Path reconstruction terminates and starts at s.
			path := ev.Routing.Path(s, v)
			if path[0] != s || path[len(path)-1] != v {
				t.Fatalf("path endpoints wrong: %v", path)
			}
		}
	}
}

// TestCapacitySubadditivity: on any graph, each link's load is bounded by
// the total demand, and total carried volume Σ w_i ≥ total demand (every
// pair crosses at least one link).
func TestCapacityBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(8)
		pts := geom.NewUniform().Sample(n, rng)
		pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(n, rng)
		tm := traffic.Gravity(pops, 1)
		e := MustNewEvaluator(geom.DistanceMatrix(pts), tm, DefaultParams())
		g := randomConnected(rng, n, 0.25, e.Dist())
		ev := e.Evaluate(g)
		var totalDemand float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				totalDemand += tm.Demand[i][j]
			}
		}
		var sumW float64
		for _, w := range ev.Capacities {
			if w > totalDemand+1e-9 {
				t.Fatalf("capacity %v exceeds total demand %v", w, totalDemand)
			}
			sumW += w
		}
		if sumW < totalDemand-1e-6 {
			t.Fatalf("Σw %v below total demand %v (some pair uncarried?)", sumW, totalDemand)
		}
	}
}

// TestRouteCostLowerBound: Σ t_r·L_r is bounded below by routing every
// pair on its direct geometric distance (the clique's route cost).
func TestRouteCostLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := geom.NewUniform().Sample(12, rng)
	pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(12, rng)
	tm := traffic.Gravity(pops, 1)
	e := MustNewEvaluator(geom.DistanceMatrix(pts), tm, DefaultParams())
	var direct float64
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			direct += tm.Demand[i][j] * e.Dist()[i][j]
		}
	}
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(rng, 12, 0.25, e.Dist())
		if rc := e.RouteCost(g); rc < direct-1e-6 {
			t.Fatalf("route cost %v below geometric lower bound %v", rc, direct)
		}
	}
}

// TestLoadsConserveTraffic: per-link capacities are demand flows summed
// over shortest-path trees, so their total must equal Σ_{s<d} t_sd·hops(s,d)
// exactly as computed by walking the returned routing — every unit of
// demand crosses every link of its path once, no unit appears twice.
func TestLoadsConserveTraffic(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		n := 6 + rng.Intn(20)
		pts := geom.NewUniform().Sample(n, rng)
		pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(n, rng)
		tm := traffic.Gravity(pops, 1)
		e, err := NewEvaluator(geom.DistanceMatrix(pts), tm, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		g := randomConnected(rng, n, 0.3, e.Dist())
		ev := e.Evaluate(g)
		var sumW float64
		for _, w := range ev.Capacities {
			sumW += w
		}
		var want float64
		for s := 0; s < n; s++ {
			for d := s + 1; d < n; d++ {
				hops := len(ev.Routing.Path(s, d)) - 1
				want += tm.Demand[s][d] * float64(hops)
			}
		}
		if diff := math.Abs(sumW - want); diff > 1e-9*math.Max(1, want) {
			t.Fatalf("seed %d: Σw %v != Σ t·hops %v (diff %g)", seed, sumW, want, diff)
		}
	}
}
