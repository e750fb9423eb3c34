// Package metrics computes the topology statistics COLD's evaluation
// tracks (§6 and §7 of the paper): average node degree, the coefficient of
// variation of node degree (CVND, the paper's "hubbiness" measure),
// hop-count diameter, global clustering coefficient, plus the companions
// the paper mentions — assortativity, the s-metric of Li et al. (the
// "entropy"-related statistic), average shortest-path length and
// betweenness centralities.
package metrics

import (
	"math"

	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/stats"
)

// AverageDegree returns 2E/n, or NaN for the empty graph.
func AverageDegree(g *graph.Graph) float64 {
	if g.N() == 0 {
		return math.NaN()
	}
	return 2 * float64(g.NumEdges()) / float64(g.N())
}

// DegreeCV returns the coefficient of variation of node degree: the degree
// standard deviation divided by the mean (Figure 8 of the paper). NaN for
// graphs with no edges.
func DegreeCV(g *graph.Graph) float64 {
	ds := g.Degrees()
	f := make([]float64, len(ds))
	for i, d := range ds {
		f[i] = float64(d)
	}
	return stats.CoefficientOfVariation(f)
}

// NumHubs returns the number of core PoPs (degree > 1), the quantity in
// Figure 9 of the paper.
func NumHubs(g *graph.Graph) int { return len(g.CoreNodes()) }

// NumLeaves returns the number of degree-1 PoPs.
func NumLeaves(g *graph.Graph) int {
	count := 0
	for i := 0; i < g.N(); i++ {
		if g.IsLeaf(i) {
			count++
		}
	}
	return count
}

// Diameter returns the maximum hop count between any pair of nodes
// (Figure 6 of the paper). Disconnected graphs return -1; graphs with
// fewer than two nodes return 0.
func Diameter(g *graph.Graph) int {
	dia, _ := PathStats(g)
	return dia
}

// AveragePathLength returns the mean hop count over all distinct node
// pairs, or NaN if disconnected or fewer than two nodes.
func AveragePathLength(g *graph.Graph) float64 {
	_, apl := PathStats(g)
	return apl
}

// PathStats returns Diameter and AveragePathLength from a single all-sources
// BFS sweep — the streaming validation pipeline calls both per topology, and
// the separate functions would each pay the full O(n·m) traversal.
// Disconnected graphs return (-1, NaN); graphs with fewer than two nodes
// return (0, NaN).
func PathStats(g *graph.Graph) (diameter int, avgPathLen float64) {
	n := g.N()
	if n <= 1 {
		return 0, math.NaN()
	}
	maxHops := 0
	var total float64
	for s := 0; s < n; s++ {
		for d, h := range g.BFSHops(s) {
			if h < 0 {
				return -1, math.NaN()
			}
			if h > maxHops {
				maxHops = h
			}
			if d > s {
				total += float64(h)
			}
		}
	}
	return maxHops, total / float64(n*(n-1)/2)
}

// GlobalClustering returns the global clustering coefficient: three times
// the number of triangles divided by the number of connected triples
// (wedges). Trees return 0; the complete graph returns 1; graphs with no
// wedges return 0 (Figure 7 of the paper).
func GlobalClustering(g *graph.Graph) float64 {
	triangles := Triangles(g)
	wedges := 0
	for i := 0; i < g.N(); i++ {
		d := g.Degree(i)
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(triangles) / float64(wedges)
}

// Triangles counts the triangles in g.
func Triangles(g *graph.Graph) int {
	count := 0
	var nb []int
	for v := 0; v < g.N(); v++ {
		nb = g.Neighbors(v, nb[:0])
		for a := 0; a < len(nb); a++ {
			if nb[a] < v {
				continue
			}
			for b := a + 1; b < len(nb); b++ {
				if g.HasEdge(nb[a], nb[b]) {
					count++
				}
			}
		}
	}
	return count
}

// SMetric returns s(g) = Σ_{(i,j)∈E} d_i·d_j, the Li et al. statistic
// related to the graph "entropy" used to expose the flaws of degree-based
// generators. High s(g) means high-degree nodes interconnect.
func SMetric(g *graph.Graph) float64 {
	ds := g.Degrees()
	var s float64
	for _, e := range g.Edges() {
		s += float64(ds[e.I] * ds[e.J])
	}
	return s
}

// Assortativity returns the Pearson correlation of degrees across edges
// (Newman's r). NaN when undefined (fewer than two edges, or zero degree
// variance across edge endpoints, e.g. regular graphs).
func Assortativity(g *graph.Graph) float64 {
	edges := g.Edges()
	m := float64(len(edges))
	if m < 2 {
		return math.NaN()
	}
	ds := g.Degrees()
	var sumProd, sumSum, sumSq float64
	for _, e := range edges {
		a, b := float64(ds[e.I]), float64(ds[e.J])
		sumProd += a * b
		sumSum += (a + b) / 2
		sumSq += (a*a + b*b) / 2
	}
	num := sumProd/m - (sumSum/m)*(sumSum/m)
	den := sumSq/m - (sumSum/m)*(sumSum/m)
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// NodeBetweenness returns the betweenness centrality of every node under
// hop-count shortest paths (Brandes' algorithm, unweighted). Endpoint
// pairs are not counted toward their own centrality. Each unordered pair
// is counted once.
func NodeBetweenness(g *graph.Graph) []float64 {
	bc := make([]float64, g.N())
	brandes(g, bc, nil)
	return bc
}

// EdgeBetweenness returns betweenness for every edge of g, aligned with
// g.Edges(). Each unordered pair of nodes is counted once.
func EdgeBetweenness(g *graph.Graph) []float64 {
	bc := make([]float64, g.NumEdges())
	brandes(g, nil, bc)
	return bc
}

// brandes runs Brandes' single-source shortest-path counting and
// dependency accumulation from every node, adding each node's dependency
// into node (length n) and each shortest-path arc's share into edge
// (aligned with g.Edges()); either may be nil. Every unordered pair is
// swept from both endpoints, so both results are halved at the end.
func brandes(g *graph.Graph, node, edge []float64) {
	n := g.N()
	var index map[graph.Edge]int
	if edge != nil {
		edges := g.Edges()
		index = make(map[graph.Edge]int, len(edges))
		for i, e := range edges {
			index[e] = i
		}
	}
	sigma := make([]float64, n)
	dist := make([]int, n)
	delta := make([]float64, n)
	preds := make([][]int, n)
	queue := make([]int, 0, n)
	order := make([]int, 0, n)
	for s := 0; s < n; s++ {
		for i := 0; i < n; i++ {
			sigma[i] = 0
			dist[i] = -1
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		sigma[s] = 1
		dist[s] = 0
		queue = append(queue[:0], s)
		order = order[:0]
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			g.EachNeighbor(v, func(w int) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			})
		}
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, v := range preds[w] {
				c := sigma[v] / sigma[w] * (1 + delta[w])
				delta[v] += c
				if edge != nil {
					edge[index[graph.Edge{I: min(v, w), J: max(v, w)}]] += c
				}
			}
			if node != nil && w != s {
				node[w] += delta[w]
			}
		}
	}
	for i := range node {
		node[i] /= 2
	}
	for i := range edge {
		edge[i] /= 2
	}
}

// Summary bundles the headline statistics for one topology.
type Summary struct {
	N             int
	Edges         int
	AverageDegree float64
	DegreeCV      float64
	Diameter      int
	Clustering    float64
	Hubs          int
	Leaves        int
	AvgPathLen    float64
	Assortativity float64
	SMetric       float64
}

// Summarize computes a Summary for g.
func Summarize(g *graph.Graph) Summary {
	dia, apl := PathStats(g)
	return Summary{
		N:             g.N(),
		Edges:         g.NumEdges(),
		AverageDegree: AverageDegree(g),
		DegreeCV:      DegreeCV(g),
		Diameter:      dia,
		Clustering:    GlobalClustering(g),
		Hubs:          NumHubs(g),
		Leaves:        NumLeaves(g),
		AvgPathLen:    apl,
		Assortativity: Assortativity(g),
		SMetric:       SMetric(g),
	}
}
