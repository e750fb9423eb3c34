package heuristics

// Behavioural tests: the hub-growing template's invariants and the regimes
// where each greedy variant is known to excel (the structure behind the
// paper's Figure 3 crossovers).

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/graph"
)

// TestHubMSTWinsAtTinyK2: when k2 ≈ 0 and k3 = 0, cost reduces to
// k0·|E| + k1·Σℓ; among hub-based designs the MST wiring minimizes length,
// so hub-mst must not lose to complete there.
func TestHubMSTWinsAtTinyK2(t *testing.T) {
	p := cost.Params{K0: 10, K1: 1, K2: 1e-7, K3: 0}
	for seed := int64(0); seed < 5; seed++ {
		e := ctx(t, 16, p, seed)
		mst := HubMST(context.Background(), e)
		comp := Complete(context.Background(), e)
		if mst.Cost > comp.Cost+1e-9 {
			t.Errorf("seed %d: hub-mst %v lost to complete %v at negligible k2", seed, mst.Cost, comp.Cost)
		}
		// And the global MST is optimal in this regime: nothing beats it.
		pure := PureMST(e)
		if mst.Cost < pure.Cost-1e-9 {
			t.Errorf("seed %d: hub-mst %v beat the pure MST %v at k1-dominant costs", seed, mst.Cost, pure.Cost)
		}
	}
}

// TestCompleteCatchesUpAtLargeK2: with a strongly dominant k2, densely
// wired hubs pay off; complete must beat hub-mst.
func TestCompleteCatchesUpAtLargeK2(t *testing.T) {
	p := cost.Params{K0: 10, K1: 1, K2: 3e-2, K3: 0}
	wins := 0
	for seed := int64(0); seed < 5; seed++ {
		e := ctx(t, 16, p, seed)
		if Complete(context.Background(), e).Cost <= HubMST(context.Background(), e).Cost+1e-9 {
			wins++
		}
	}
	if wins < 4 {
		t.Errorf("complete won only %d/5 contexts at k2=3e-2", wins)
	}
}

// TestStarOptimalAtHugeK3: with k3 dominant every algorithm should land on
// (or match) the best single-hub star.
func TestStarOptimalAtHugeK3(t *testing.T) {
	p := cost.Params{K0: 1, K1: 1, K2: 1e-9, K3: 1e7}
	e := ctx(t, 12, p, 3)
	star := Star(context.Background(), e)
	rng := rand.New(rand.NewSource(4))
	for _, r := range All(context.Background(), e, rng) {
		if r.Name == "clique" || r.Name == "mst-all" {
			continue // fixed topologies, not hub-based
		}
		if math.Abs(r.Cost-star.Cost) > 1e-6*star.Cost {
			t.Errorf("%s cost %v != star %v under dominant k3", r.Name, r.Cost, star.Cost)
		}
	}
}

// TestGrowHubsAddsHubsWhenK2Demands: with meaningful bandwidth costs the
// greedy algorithms must promote more than the initial single hub.
func TestGrowHubsAddsHubsWhenK2Demands(t *testing.T) {
	p := cost.Params{K0: 10, K1: 1, K2: 2e-3, K3: 0}
	e := ctx(t, 18, p, 7)
	for _, r := range []Result{Complete(context.Background(), e), HubMST(context.Background(), e), GreedyAttachment(context.Background(), e)} {
		hubs := len(r.Graph.CoreNodes())
		if hubs < 2 {
			t.Errorf("%s promoted no hubs at k2=2e-3 (%d core nodes)", r.Name, hubs)
		}
	}
}

// TestLeavesAttachToNearestHub: in any hub-grown result, every leaf's
// single neighbor must be its nearest non-leaf node (the reattachment
// rule).
func TestLeavesAttachToNearestHub(t *testing.T) {
	p := cost.Params{K0: 10, K1: 1, K2: 4e-4, K3: 20}
	e := ctx(t, 15, p, 9)
	r := Complete(context.Background(), e)
	g := r.Graph
	core := g.CoreNodes()
	if len(core) == 0 {
		t.Skip("degenerate: no hubs")
	}
	for v := 0; v < g.N(); v++ {
		if !g.IsLeaf(v) {
			continue
		}
		nb := g.Neighbors(v, nil)
		attached := nb[0]
		best, bestD := -1, math.Inf(1)
		for _, h := range core {
			if h == v {
				continue
			}
			if d := e.Dist()[v][h]; d < bestD {
				best, bestD = h, d
			}
		}
		if attached != best {
			t.Errorf("leaf %d attached to %d, nearest hub is %d", v, attached, best)
		}
	}
}

// TestBruteForceSkipsDisconnected: the reported optimum must always be
// connected, even in regimes that reward few links.
func TestBruteForceConnected(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		e := ctx(t, 5, cost.Params{K0: 1e6, K1: 1, K2: 1e-9, K3: 0}, seed)
		r, err := BruteForce(e)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Graph.IsConnected() {
			t.Fatal("brute force returned disconnected graph")
		}
		// k0-dominant: optimum is a spanning tree (n-1 links).
		if r.Graph.NumEdges() != 4 {
			t.Errorf("k0-dominant optimum has %d links, want 4", r.Graph.NumEdges())
		}
	}
}

// TestHeuristicResultsAreIndependentCopies: mutating one result's graph
// must not corrupt another run.
func TestHeuristicResultsAreIndependentCopies(t *testing.T) {
	e := ctx(t, 10, cost.DefaultParams(), 11)
	a := PureMST(e)
	b := PureMST(e)
	a.Graph.AddEdge(0, 9)
	if b.Graph.HasEdge(0, 9) && !graphHasEdgeInMST(e, 0, 9) {
		t.Error("results share graph storage")
	}
}

func graphHasEdgeInMST(e *cost.Evaluator, i, j int) bool {
	return graph.MST(e.N(), e.Dist()).HasEdge(i, j)
}
