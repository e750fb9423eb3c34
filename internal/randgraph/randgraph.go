// Package randgraph implements the classical random-graph generators COLD
// is compared against in §2 and Table 1 of the paper: Erdős–Rényi graphs
// (by edge probability and by exact edge count), Waxman's
// distance-dependent random graphs, and power-law random graphs (PLRG) via
// the configuration model.
//
// These generators intentionally exhibit the weaknesses the paper
// discusses: they may produce disconnected graphs, carry no capacities or
// routing, and their parameters have little operational meaning. They
// exist here to ground the Table 1 comparison and the Figure 2
// demonstration.
package randgraph

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
)

// ER returns an Erdős–Rényi G(n, p) graph: every possible edge present
// independently with probability p.
func ER(n int, p float64, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// ERWithEdges returns a uniform random graph with exactly m edges (G(n, m)),
// the variant Figure 2 uses to match an input graph's link count. It
// panics if m exceeds C(n, 2).
func ERWithEdges(n, m int, rng *rand.Rand) *graph.Graph {
	maxEdges := n * (n - 1) / 2
	if m > maxEdges || m < 0 {
		panic(fmt.Sprintf("randgraph: %d edges impossible on %d nodes", m, n))
	}
	// Reservoir-free approach: shuffle all pairs, take the first m.
	pairs := make([][2]int, 0, maxEdges)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	g := graph.New(n)
	for _, pr := range pairs[:m] {
		g.AddEdge(pr[0], pr[1])
	}
	return g
}

// Waxman returns a Waxman random graph over the given points: edge {i,j}
// present with probability alpha·exp(−d_ij/(beta·L)), where L is the
// maximum pairwise distance. alpha scales overall density; beta controls
// how sharply probability decays with distance.
func Waxman(pts []geom.Point, alpha, beta float64, rng *rand.Rand) *graph.Graph {
	n := len(pts)
	g := graph.New(n)
	if n == 0 {
		return g
	}
	dist := geom.DistanceMatrix(pts)
	var maxD float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dist[i][j] > maxD {
				maxD = dist[i][j]
			}
		}
	}
	if maxD == 0 {
		maxD = 1 // all points coincide; degenerate but well-defined
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := alpha * math.Exp(-dist[i][j]/(beta*maxD))
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// PLRG returns a power-law random graph on n nodes via the configuration
// model: expected degrees w_i ∝ (i+1)^(−1/(exponent−1)) are drawn as stubs
// and matched uniformly at random, discarding self loops and multi-edges
// (the standard simple-graph projection). exponent is the power-law
// exponent of the degree distribution (typically 2 < exponent < 3);
// minDegree scales the sequence so the smallest expected degree is at
// least minDegree.
func PLRG(n int, exponent float64, minDegree int, rng *rand.Rand) (*graph.Graph, error) {
	if exponent <= 1 {
		return nil, fmt.Errorf("randgraph: PLRG exponent %v must exceed 1", exponent)
	}
	if minDegree < 1 {
		return nil, fmt.Errorf("randgraph: PLRG min degree %d must be >= 1", minDegree)
	}
	g := graph.New(n)
	if n < 2 {
		return g, nil
	}
	// Zipf-style degree sequence: d_i = round(minDegree · (n/(i+1))^(1/(exponent-1)))
	// capped at n-1 (simple graph).
	degs := make([]int, n)
	inv := 1 / (exponent - 1)
	total := 0
	for i := range degs {
		d := int(math.Round(float64(minDegree) * math.Pow(float64(n)/float64(i+1), inv)))
		if d < minDegree {
			d = minDegree
		}
		if d > n-1 {
			d = n - 1
		}
		degs[i] = d
		total += d
	}
	if total%2 == 1 {
		degs[n-1]++ // even stub count for matching
		total++
	}
	stubs := make([]int, 0, total)
	for v, d := range degs {
		for k := 0; k < d; k++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for k := 0; k+1 < len(stubs); k += 2 {
		a, b := stubs[k], stubs[k+1]
		if a != b {
			g.AddEdge(a, b) // duplicate edges collapse automatically
		}
	}
	return g, nil
}

// BarabasiAlbert returns a preferential-attachment graph: starting from a
// small clique, each new node attaches m edges to existing nodes chosen
// with probability proportional to their degree. This is the generative
// mechanism behind power-law graphs that §2 of the paper criticizes as
// operationally meaningless for PoP-level synthesis ("PoPs do not 'attach'
// to other PoPs according to a probability based on degree!") — included
// so the criticism can be demonstrated empirically. m must be >= 1.
func BarabasiAlbert(n, m int, rng *rand.Rand) (*graph.Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("randgraph: BA attachment count %d must be >= 1", m)
	}
	g := graph.New(n)
	if n == 0 {
		return g, nil
	}
	seed := m + 1
	if seed > n {
		seed = n
	}
	// Repeated-endpoint list implements degree-proportional sampling.
	var stubs []int
	for i := 0; i < seed; i++ {
		for j := i + 1; j < seed; j++ {
			g.AddEdge(i, j)
			stubs = append(stubs, i, j)
		}
	}
	for v := seed; v < n; v++ {
		attached := make(map[int]bool, m)
		// Targets must be recorded in acceptance order, not map order: the
		// stubs list is the sampling distribution for every later node, so
		// iterating the map here made equal rngs produce different graphs.
		targets := make([]int, 0, m)
		for len(targets) < m {
			t := stubs[rng.Intn(len(stubs))]
			if t == v || attached[t] {
				continue
			}
			attached[t] = true
			targets = append(targets, t)
		}
		for _, t := range targets {
			g.AddEdge(v, t)
			stubs = append(stubs, v, t)
		}
	}
	return g, nil
}
