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
	"fmt"
	"math"
	"math/bits"
	"math/rand"

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
// point, and the optimal topology when the hub cost k3 dominates.
func Star(e *cost.Evaluator) Result {
	best, _ := star(e)
	return best
}

// star is Star that also reports the hub, the first hub of every greedy
// algorithm (-1 when no star has a finite cost).
func star(e *cost.Evaluator) (Result, int) {
	n := e.N()
	best, hub := Result{Name: "star", Cost: math.Inf(1)}, -1
	for h := 0; h < n; h++ {
		g := starAt(n, h)
		if c := e.Cost(g); c < best.Cost {
			best.Graph, best.Cost, hub = g, c, h
		}
	}
	return best, hub
}

func starAt(n, hub int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		if v != hub {
			g.AddEdge(hub, v)
		}
	}
	return g
}

// hubWiring decides how a newly promoted hub connects to the existing hubs.
// It receives the hub set including the new hub as the last element and
// must return the inter-hub edges for the whole hub set.
type hubWiring func(e *cost.Evaluator, hubs []int, prev [][2]int, newHub int) [][2]int

// growHubs runs the shared greedy loop: starting from the best single-hub
// star, promote the cost-reducing leaf (chosen by pick) until no promotion
// helps. pick receives the current state and returns the best candidate
// hub with its wired graph and cost, or ok=false when no candidate
// improves.
func growHubs(name string, e *cost.Evaluator, wire hubWiring) Result {
	n := e.N()
	start, hub0 := star(e)
	if n == 1 {
		return Result{Name: name, Graph: graph.New(1), Cost: e.Cost(graph.New(1))}
	}
	hubs := []int{hub0}
	var hubEdges [][2]int
	cur := start
	cur.Name = name
	for len(hubs) < n {
		bestC := cur.Cost
		var bestG *graph.Graph
		var bestHubs []int
		var bestEdges [][2]int
		for v := 0; v < n; v++ {
			if contains(hubs, v) {
				continue
			}
			cand := append(append([]int(nil), hubs...), v)
			edges := wire(e, cand, hubEdges, v)
			g := assemble(e, cand, edges)
			if c := e.Cost(g); c < bestC {
				bestC = c
				bestG = g
				bestHubs = cand
				bestEdges = edges
			}
		}
		if bestG == nil {
			break // no promotion reduces cost: terminate
		}
		cur = Result{Name: name, Graph: bestG, Cost: bestC}
		hubs = bestHubs
		hubEdges = bestEdges
	}
	return cur
}

// assemble builds the network for a hub set: the given inter-hub edges plus
// every remaining leaf attached to its closest hub.
func assemble(e *cost.Evaluator, hubs []int, hubEdges [][2]int) *graph.Graph {
	n := e.N()
	g := graph.New(n)
	for _, he := range hubEdges {
		g.AddEdge(he[0], he[1])
	}
	for v := 0; v < n; v++ {
		if !contains(hubs, v) {
			g.AddEdge(v, nearest(e.Dist(), v, hubs))
		}
	}
	return g
}

// nearest returns the hub closest to v (lowest index on ties).
func nearest(dist [][]float64, v int, hubs []int) int {
	best, bestD := hubs[0], math.Inf(1)
	for _, h := range hubs {
		if h == v {
			continue
		}
		if d := dist[v][h]; d < bestD {
			best, bestD = h, d
		}
	}
	return best
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Complete grows hubs wired as a clique: each new hub links to all existing
// hubs ("the hubs form a completely connected graph").
func Complete(e *cost.Evaluator) Result {
	return growHubs("complete", e, func(_ *cost.Evaluator, hubs []int, _ [][2]int, _ int) [][2]int {
		var edges [][2]int
		for i := 0; i < len(hubs); i++ {
			for j := i + 1; j < len(hubs); j++ {
				edges = append(edges, [2]int{hubs[i], hubs[j]})
			}
		}
		return edges
	})
}

// HubMST grows hubs wired as a minimum spanning tree over the hub set
// (the paper's "MST" greedy variant).
func HubMST(e *cost.Evaluator) Result {
	return growHubs("hub-mst", e, func(e *cost.Evaluator, hubs []int, _ [][2]int, _ int) [][2]int {
		k := len(hubs)
		w := make([][]float64, k)
		for i := range w {
			w[i] = make([]float64, k)
			for j := range w[i] {
				w[i][j] = e.Dist()[hubs[i]][hubs[j]]
			}
		}
		t := graph.MST(k, w)
		var edges [][2]int
		for _, te := range t.Edges() {
			edges = append(edges, [2]int{hubs[te.I], hubs[te.J]})
		}
		return edges
	})
}

// GreedyAttachment grows hubs wired greedily: the new hub first takes the
// single cheapest connecting link, then keeps adding links to other hubs
// while each addition reduces total cost.
func GreedyAttachment(e *cost.Evaluator) Result {
	return growHubs("greedy-attach", e, greedyWire)
}

// greedyWire keeps prev inter-hub edges and attaches newHub greedily.
func greedyWire(e *cost.Evaluator, hubs []int, prev [][2]int, newHub int) [][2]int {
	edges := append([][2]int(nil), prev...)
	others := hubs[:len(hubs)-1]
	// Mandatory first link: the one minimizing resulting network cost.
	bestH, bestC := -1, math.Inf(1)
	for _, h := range others {
		cand := append(append([][2]int(nil), edges...), [2]int{h, newHub})
		if c := e.Cost(assemble(e, hubs, cand)); c < bestC {
			bestH, bestC = h, c
		}
	}
	edges = append(edges, [2]int{bestH, newHub})
	linked := map[int]bool{bestH: true}
	// Optional further links while they decrease cost.
	for {
		curC := e.Cost(assemble(e, hubs, edges))
		bestH, bestC = -1, curC
		for _, h := range others {
			if linked[h] {
				continue
			}
			cand := append(append([][2]int(nil), edges...), [2]int{h, newHub})
			if c := e.Cost(assemble(e, hubs, cand)); c < bestC {
				bestH, bestC = h, c
			}
		}
		if bestH < 0 {
			return edges
		}
		edges = append(edges, [2]int{bestH, newHub})
		linked[bestH] = true
	}
}

// RandomGreedy runs the paper's Random Greedy algorithm: iterate over PoPs
// in a random permutation, promoting a PoP to hub (wired greedily, as in
// GreedyAttachment) whenever that reduces cost; repeat for perms
// permutations and keep the best network found.
func RandomGreedy(e *cost.Evaluator, rng *rand.Rand, perms int) Result {
	n := e.N()
	best := Result{Name: "random-greedy", Cost: math.Inf(1)}
	if n == 1 {
		g := graph.New(1)
		return Result{Name: "random-greedy", Graph: g, Cost: e.Cost(g)}
	}
	start, hub0 := star(e)
	for p := 0; p < perms; p++ {
		hubs := []int{hub0}
		var hubEdges [][2]int
		cur, curC := start.Graph, start.Cost
		for _, v := range rng.Perm(n) {
			if contains(hubs, v) {
				continue
			}
			cand := append(append([]int(nil), hubs...), v)
			edges := greedyWire(e, cand, hubEdges, v)
			g := assemble(e, cand, edges)
			if c := e.Cost(g); c < curC {
				cur, curC = g, c
				hubs = cand
				hubEdges = edges
			}
		}
		if curC < best.Cost {
			best.Graph = cur
			best.Cost = curC
		}
	}
	return best
}

// DefaultRandomGreedyPerms is the number of permutations RandomGreedy uses
// inside All.
const DefaultRandomGreedyPerms = 10

// All runs every heuristic and returns the results, suitable for seeding
// the genetic algorithm (the paper's "initialised GA").
func All(e *cost.Evaluator, rng *rand.Rand) []Result {
	return []Result{
		PureMST(e),
		Clique(e),
		Star(e),
		Complete(e),
		HubMST(e),
		GreedyAttachment(e),
		RandomGreedy(e, rng, DefaultRandomGreedyPerms),
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
