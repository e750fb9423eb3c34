// Package heuristics implements the non-GA optimizers from §5 of the COLD
// paper: simple closed-form topologies (minimum spanning tree, clique,
// best single-hub star) and the four greedy hub-growing algorithms the GA
// is benchmarked against — Random Greedy, Complete, MST and Greedy
// Attachment — plus brute-force enumeration for small n, used to verify
// that the GA finds true optima.
//
// Every hub-growing algorithm follows the paper's template: start with one
// hub and all other PoPs as leaves attached to it; convert leaves to hubs
// one at a time while that reduces network cost, re-attaching the remaining
// leaves to their closest hub after every change. The variants differ only
// in how a new hub is wired into the existing hubs.
package heuristics

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/graph"
)

// Result is an optimizer's best topology and its cost.
type Result struct {
	Name  string
	Graph *graph.Graph
	Cost  float64
}

// PureMST returns the minimum spanning tree over all PoPs — the optimal
// topology when the length cost k1 dominates.
func PureMST(e *cost.Evaluator) Result {
	g := graph.MST(e.N(), e.Dist())
	return Result{Name: "mst-all", Graph: g, Cost: e.Cost(g)}
}

// Clique returns the fully connected topology — optimal when the bandwidth
// cost k2 dominates.
func Clique(e *cost.Evaluator) Result {
	g := graph.Complete(e.N())
	return Result{Name: "clique", Graph: g, Cost: e.Cost(g)}
}

// Star returns the best single-hub star: every greedy algorithm's starting
// point, and the optimal topology when the hub cost k3 dominates. Once ctx
// is done it returns the best star so far.
func Star(ctx context.Context, e *cost.Evaluator) Result {
	best, _ := star(ctx, e)
	return best
}

// star is Star that also reports the hub, the first hub of every greedy
// algorithm. It starts from hub 0's star at that star's own cost, even
// +Inf, so it returns a valid graph and hub whatever the costs.
func star(ctx context.Context, e *cost.Evaluator) (Result, int) {
	g := assemble(e, []int{0}, nil)
	best, hub := Result{Name: "star", Graph: g, Cost: e.Cost(g)}, 0
	for h := 1; h < e.N() && ctx.Err() == nil; h++ {
		g := assemble(e, []int{h}, nil)
		if c := e.Cost(g); c < best.Cost {
			best.Graph, best.Cost, hub = g, c, h
		}
	}
	return best, hub
}

// hubWiring decides how a newly promoted hub connects to the existing hubs.
// It receives the hub set including the new hub as the last element and
// must return the inter-hub links for the whole hub set.
type hubWiring func(e *cost.Evaluator, hubs []int, prev [][2]int, newHub int) [][2]int

// hubNet is one state of the hub-growing template: the network and its
// cost, the hubs in promotion order and their inter-hub links.
type hubNet struct {
	Result
	hubs  []int
	links [][2]int
}

// starNet is the first state of the greedy algorithm name: the best star.
func starNet(ctx context.Context, name string, e *cost.Evaluator) hubNet {
	r, hub := star(ctx, e)
	r.Name = name
	return hubNet{Result: r, hubs: []int{hub}}
}

// promote returns the state with leaf v promoted to hub and wired in by
// wire.
func (s hubNet) promote(e *cost.Evaluator, wire hubWiring, v int) hubNet {
	hubs := append(slices.Clip(s.hubs), v)
	links := wire(e, hubs, s.links, v)
	g := assemble(e, hubs, links)
	return hubNet{Result{s.Name, g, e.Cost(g)}, hubs, links}
}

// growHubs runs the template by best improvement: from the best star, it
// promotes the leaf whose promotion lowers cost most (the lowest-index
// leaf on ties) until no promotion lowers it. Once ctx is done it returns
// the current network, which is connected like every accepted state.
func growHubs(ctx context.Context, name string, e *cost.Evaluator, wire hubWiring) Result {
	cur := starNet(ctx, name, e)
	for {
		next := cur
		for v := range e.N() {
			if slices.Contains(cur.hubs, v) {
				continue
			}
			if ctx.Err() != nil {
				return cur.Result
			}
			if c := cur.promote(e, wire, v); c.Cost < next.Cost {
				next = c
			}
		}
		if len(next.hubs) == len(cur.hubs) {
			return cur.Result
		}
		cur = next
	}
}

// assemble builds the network for a hub set: the given inter-hub links
// plus every remaining leaf attached to its closest hub.
func assemble(e *cost.Evaluator, hubs []int, links [][2]int) *graph.Graph {
	g := graph.New(e.N())
	for _, l := range links {
		g.AddEdge(l[0], l[1])
	}
	for v := range e.N() {
		if !slices.Contains(hubs, v) {
			g.AddEdge(v, nearest(e.Dist()[v], hubs))
		}
	}
	return g
}

// nearest returns the hub closest by the distance row dv (the earliest
// promoted on ties).
func nearest(dv []float64, hubs []int) int {
	best, bestD := hubs[0], math.Inf(1)
	for _, h := range hubs {
		if d := dv[h]; d < bestD {
			best, bestD = h, d
		}
	}
	return best
}

// Complete grows hubs wired as a clique: each new hub links to all existing
// hubs ("the hubs form a completely connected graph").
func Complete(ctx context.Context, e *cost.Evaluator) Result {
	return growHubs(ctx, "complete", e, func(_ *cost.Evaluator, hubs []int, _ [][2]int, _ int) [][2]int {
		var links [][2]int
		for i := 0; i < len(hubs); i++ {
			for j := i + 1; j < len(hubs); j++ {
				links = append(links, [2]int{hubs[i], hubs[j]})
			}
		}
		return links
	})
}

// HubMST grows hubs wired as a minimum spanning tree over the hub set
// (the paper's "MST" greedy variant).
func HubMST(ctx context.Context, e *cost.Evaluator) Result {
	return growHubs(ctx, "hub-mst", e, func(e *cost.Evaluator, hubs []int, _ [][2]int, _ int) [][2]int {
		k := len(hubs)
		w := make([][]float64, k)
		for i := range w {
			w[i] = make([]float64, k)
			for j := range w[i] {
				w[i][j] = e.Dist()[hubs[i]][hubs[j]]
			}
		}
		t := graph.MST(k, w)
		var links [][2]int
		for _, te := range t.Edges() {
			links = append(links, [2]int{hubs[te.I], hubs[te.J]})
		}
		return links
	})
}

// GreedyAttachment grows hubs wired greedily: the new hub first takes the
// single cheapest connecting link, then keeps adding links to other hubs
// while each addition reduces total cost.
func GreedyAttachment(ctx context.Context, e *cost.Evaluator) Result {
	return growHubs(ctx, "greedy-attach", e, greedyWire)
}

// greedyWire keeps the prev links and links newHub to one existing hub at
// a time, each the link that gives the lowest network cost, while that
// cost falls. The best cost starts at +Inf, so the first link is
// mandatory. If every first link costs +Inf, newHub stays unlinked: its
// network is disconnected, costs +Inf, and no greedy loop accepts it.
func greedyWire(e *cost.Evaluator, hubs []int, prev [][2]int, newHub int) [][2]int {
	links := slices.Clone(prev)
	curC := math.Inf(1)
	for {
		bestH, bestC := -1, curC
		for _, h := range hubs[:len(hubs)-1] {
			link := [2]int{h, newHub}
			if slices.Contains(links[len(prev):], link) {
				continue
			}
			if c := e.Cost(assemble(e, hubs, append(slices.Clip(links), link))); c < bestC {
				bestH, bestC = h, c
			}
		}
		if bestH < 0 {
			return links
		}
		links, curC = append(links, [2]int{bestH, newHub}), bestC
	}
}

// RandomGreedy runs the paper's Random Greedy algorithm: iterate over PoPs
// in a random permutation, promoting a PoP to hub (wired greedily, as in
// GreedyAttachment) whenever that reduces cost; repeat for perms
// permutations and keep the best network found. Once ctx is done each
// permutation stops at its current network.
func RandomGreedy(ctx context.Context, e *cost.Evaluator, rng *rand.Rand, perms int) Result {
	start := starNet(ctx, "random-greedy", e)
	best := start
	for range perms {
		cur := start
		for _, v := range rng.Perm(e.N()) {
			if slices.Contains(cur.hubs, v) {
				continue
			}
			if ctx.Err() != nil {
				break
			}
			if c := cur.promote(e, greedyWire, v); c.Cost < cur.Cost {
				cur = c
			}
		}
		if cur.Cost < best.Cost {
			best = cur
		}
	}
	return best.Result
}

// DefaultRandomGreedyPerms is the number of permutations RandomGreedy uses
// inside All.
const DefaultRandomGreedyPerms = 10

// All runs every heuristic and returns the results, suitable for seeding
// the genetic algorithm (the paper's "initialised GA"). Once ctx is done
// the hub-based heuristics return their current networks, so All has no
// error path: its caller checks ctx.
func All(ctx context.Context, e *cost.Evaluator, rng *rand.Rand) []Result {
	return []Result{
		PureMST(e),
		Clique(e),
		Star(ctx, e),
		Complete(ctx, e),
		HubMST(ctx, e),
		GreedyAttachment(ctx, e),
		RandomGreedy(ctx, e, rng, DefaultRandomGreedyPerms),
	}
}

// Graphs extracts the topologies from results.
func Graphs(rs []Result) []*graph.Graph {
	gs := make([]*graph.Graph, len(rs))
	for i, r := range rs {
		gs[i] = r.Graph
	}
	return gs
}

// Best returns the lowest-cost result. It panics on empty input.
func Best(rs []Result) Result {
	if len(rs) == 0 {
		panic("heuristics: Best of no results")
	}
	best := rs[0]
	for _, r := range rs[1:] {
		if r.Cost < best.Cost {
			best = r
		}
	}
	return best
}

// MaxBruteForceN bounds exhaustive enumeration: beyond 8 PoPs the 2^28
// candidate graphs make it impractical, as §5 of the paper notes.
const MaxBruteForceN = 8

// BruteForce enumerates every labeled graph on the context's PoPs and
// returns the true optimum. Only feasible for very small n; it returns an
// error when n exceeds MaxBruteForceN.
func BruteForce(e *cost.Evaluator) (Result, error) {
	n := e.N()
	if n > MaxBruteForceN {
		return Result{}, fmt.Errorf("heuristics: brute force limited to n <= %d, got %d", MaxBruteForceN, n)
	}
	if n == 0 {
		g := graph.New(0)
		return Result{Name: "brute-force", Graph: g, Cost: 0}, nil
	}
	pairs := make([][2]int, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	best := Result{Name: "brute-force", Cost: math.Inf(1)}
	g := graph.New(n)
	var prev uint64
	for mask := uint64(0); mask < 1<<len(pairs); mask++ {
		// A connected graph needs at least n-1 edges.
		if bits.OnesCount64(mask) < n-1 {
			continue
		}
		// Flip only the bits that changed since the previous mask.
		diff := mask ^ prev
		for diff != 0 {
			b := bits.TrailingZeros64(diff)
			pr := pairs[b]
			g.SetEdge(pr[0], pr[1], mask&(1<<b) != 0)
			diff &^= 1 << b
		}
		prev = mask
		if !g.IsConnected() {
			continue
		}
		if c := e.CostUncached(g); c < best.Cost {
			best.Graph = g.Clone()
			best.Cost = c
		}
	}
	return best, nil
}
