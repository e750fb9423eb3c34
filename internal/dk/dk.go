// Package dk implements the dK-series machinery COLD is contrasted with in
// §2 of the paper (Mahadevan et al.): degree-labeled subgraph
// distributions for d = 1, 2, 3, distinct-subgraph (parameter) counting for
// d = 2, 3, 4 (Figure 1), and the small-graph searches behind Figure 2 —
// finding all graphs matching an input's 3K-distribution and testing them
// for isomorphism, which demonstrates how the 3K-distribution can
// over-constrain generation down to a single graph.
//
// Following the paper's definition, each node of a connected graph is
// labeled with its degree *in the full graph*, and two subgraphs are the
// same dK element if their labels and edges match under some mapping.
package dk

import (
	"fmt"
	"maps"
	"math/bits"
	"sort"

	"github.com/networksynth/cold/internal/graph"
)

// Distribution1K returns the degree distribution: degree → node count.
func Distribution1K(g *graph.Graph) map[int]int {
	out := make(map[int]int)
	for _, d := range g.Degrees() {
		out[d]++
	}
	return out
}

// JointDegree2K returns the 2K distribution: for each edge, the sorted
// pair of endpoint degrees → count. It captures assortativity and the
// entropy statistic of Li et al.
func JointDegree2K(g *graph.Graph) map[[2]int]int {
	ds := g.Degrees()
	out := make(map[[2]int]int)
	for _, e := range g.Edges() {
		a, b := ds[e.I], ds[e.J]
		if a > b {
			a, b = b, a
		}
		out[[2]int{a, b}]++
	}
	return out
}

// TriadKey identifies a degree-labeled connected 3-node subgraph: either a
// triangle with sorted degree labels, or a wedge (path of two edges) keyed
// by its center's degree and the sorted degrees of its two ends.
type TriadKey struct {
	Triangle bool
	// For triangles: all three degrees sorted ascending.
	// For wedges: D[0] is the center degree, D[1] <= D[2] the end degrees.
	D [3]int
}

// String renders the key readably.
func (k TriadKey) String() string {
	if k.Triangle {
		return fmt.Sprintf("tri(%d,%d,%d)", k.D[0], k.D[1], k.D[2])
	}
	return fmt.Sprintf("wedge(center=%d ends=%d,%d)", k.D[0], k.D[1], k.D[2])
}

// Profile3K returns the 3K distribution: counts of each degree-labeled
// connected induced 3-node subgraph (wedges and triangles).
func Profile3K(g *graph.Graph) map[TriadKey]int {
	n := g.N()
	ds := g.Degrees()
	out := make(map[TriadKey]int)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			ab := g.HasEdge(a, b)
			for c := b + 1; c < n; c++ {
				ac := g.HasEdge(a, c)
				bc := g.HasEdge(b, c)
				switch countTrue(ab, ac, bc) {
				case 3:
					d := [3]int{ds[a], ds[b], ds[c]}
					sort3(&d)
					out[TriadKey{Triangle: true, D: d}]++
				case 2:
					// The center is the node on both edges.
					var center, e1, e2 int
					switch {
					case ab && ac:
						center, e1, e2 = a, b, c
					case ab && bc:
						center, e1, e2 = b, a, c
					default: // ac && bc
						center, e1, e2 = c, a, b
					}
					lo, hi := ds[e1], ds[e2]
					if lo > hi {
						lo, hi = hi, lo
					}
					out[TriadKey{D: [3]int{ds[center], lo, hi}}]++
				}
			}
		}
	}
	return out
}

// Equal1K reports whether two graphs share the same degree distribution.
func Equal1K(g, h *graph.Graph) bool {
	return maps.Equal(Distribution1K(g), Distribution1K(h))
}

// Equal2K reports whether two graphs share the same 2K distribution.
func Equal2K(g, h *graph.Graph) bool {
	return maps.Equal(JointDegree2K(g), JointDegree2K(h))
}

// Equal3K reports whether two graphs share the same 3K distribution (and,
// implicitly, the same 2K and 1K: the paper notes each dK refines the
// previous). Note Equal3K as implemented compares the triad profile and
// the 2K profile, since the 3K alone (induced triads) does not determine
// edge counts of degenerate cases like graphs with no connected triples.
func Equal3K(g, h *graph.Graph) bool {
	return Equal2K(g, h) && maps.Equal(Profile3K(g), Profile3K(h))
}

// CountDistinctSubgraphs returns the number of distinct degree-labeled
// connected induced subgraphs of size d present in g, for d in {2, 3, 4} —
// the per-graph parameter count of the dK-distribution that Figure 1 of
// the paper plots against n.
func CountDistinctSubgraphs(g *graph.Graph, d int) (int, error) {
	switch d {
	case 2:
		return len(JointDegree2K(g)), nil
	case 3:
		return len(Profile3K(g)), nil
	case 4:
		return countDistinct4(g), nil
	default:
		return 0, fmt.Errorf("dk: subgraph size %d unsupported (want 2..4)", d)
	}
}

// countDistinct4 enumerates all connected induced 4-node subgraphs and
// counts distinct (shape, degree-label) classes via canonicalization over
// the 24 permutations of four nodes.
func countDistinct4(g *graph.Graph) int {
	n := g.N()
	ds := g.Degrees()
	classes := make(map[[7]int]struct{})
	nodes := [4]int{}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				for e := c + 1; e < n; e++ {
					nodes = [4]int{a, b, c, e}
					mask := adjacency4(g, nodes)
					if !connected4(mask) {
						continue
					}
					classes[canonical4(mask, [4]int{ds[a], ds[b], ds[c], ds[e]})] = struct{}{}
				}
			}
		}
	}
	return len(classes)
}

// pairIndex4 maps an ordered pair of positions (i<j, 0..3) to a bit index.
var pairIndex4 = [4][4]int{
	{-1, 0, 1, 2},
	{0, -1, 3, 4},
	{1, 3, -1, 5},
	{2, 4, 5, -1},
}

func adjacency4(g *graph.Graph, nodes [4]int) int {
	mask := 0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if g.HasEdge(nodes[i], nodes[j]) {
				mask |= 1 << pairIndex4[i][j]
			}
		}
	}
	return mask
}

// connected4 reports whether the 4-node graph encoded by mask is connected.
func connected4(mask int) bool {
	reach := 1 // node 0
	for iter := 0; iter < 4; iter++ {
		for i := 0; i < 4; i++ {
			if reach&(1<<i) == 0 {
				continue
			}
			for j := 0; j < 4; j++ {
				if i != j && mask&(1<<pairIndex4[i][j]) != 0 {
					reach |= 1 << j
				}
			}
		}
	}
	return reach == 0xF
}

var perms4 = buildPerms4()

func buildPerms4() [][4]int {
	var out [][4]int
	idx := [4]int{0, 1, 2, 3}
	var rec func(k int)
	rec = func(k int) {
		if k == 4 {
			out = append(out, idx)
			return
		}
		for i := k; i < 4; i++ {
			idx[k], idx[i] = idx[i], idx[k]
			rec(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	rec(0)
	return out
}

// canonical4 returns the lexicographically smallest (mask, labels...)
// encoding over all node permutations.
func canonical4(mask int, labels [4]int) [7]int {
	best := [7]int{1 << 7} // sentinel larger than any 6-bit mask
	for _, p := range perms4 {
		var cand [7]int
		m := 0
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if mask&(1<<pairIndex4[p[i]][p[j]]) != 0 {
					m |= 1 << pairIndex4[i][j]
				}
			}
		}
		cand[0] = m
		for i := 0; i < 4; i++ {
			cand[i+1] = labels[p[i]]
		}
		if less7(cand, best) {
			best = cand
		}
	}
	return best
}

func less7(a, b [7]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// MaxIsomorphismN bounds the brute-force isomorphism test.
const MaxIsomorphismN = 10

// Isomorphic reports whether g and h are isomorphic, by permutation search
// with degree-sequence pruning. It panics for graphs larger than
// MaxIsomorphismN — it exists for the Figure 2 demonstration on small
// graphs, not as a general isomorphism engine.
func Isomorphic(g, h *graph.Graph) bool {
	n := g.N()
	if n != h.N() || g.NumEdges() != h.NumEdges() {
		return false
	}
	if n > MaxIsomorphismN {
		panic(fmt.Sprintf("dk: Isomorphic limited to n <= %d, got %d", MaxIsomorphismN, n))
	}
	dg, dh := g.Degrees(), h.Degrees()
	sg, sh := append([]int(nil), dg...), append([]int(nil), dh...)
	sort.Ints(sg)
	sort.Ints(sh)
	for i := range sg {
		if sg[i] != sh[i] {
			return false
		}
	}
	// Backtracking: map node i of g to an unused node of h with equal
	// degree, checking edge consistency incrementally.
	mapping := make([]int, n)
	used := make([]bool, n)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			return true
		}
		for v := 0; v < n; v++ {
			if used[v] || dh[v] != dg[i] {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				if g.HasEdge(i, j) != h.HasEdge(v, mapping[j]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			mapping[i] = v
			used[v] = true
			if rec(i + 1) {
				return true
			}
			used[v] = false
		}
		return false
	}
	return rec(0)
}

// Match3KResult is the outcome of Search3KMatches.
type Match3KResult struct {
	Matches        []*graph.Graph // graphs with the same 3K as the input
	AllIsomorphic  bool           // whether every match is isomorphic to the input
	GraphsSearched int            // connected graphs with the input's edge count examined
}

// MaxSearchN bounds the exhaustive 3K search.
const MaxSearchN = 8

// Search3KMatches enumerates every connected graph on g.N() nodes with
// g.NumEdges() edges and returns those whose 3K-distribution matches g's.
// This reproduces the Figure 2(c) demonstration: for many inputs the only
// 3K-matching graphs are isomorphic to the input itself. limit caps the
// number of matches retained (<= 0 means unlimited).
func Search3KMatches(g *graph.Graph, limit int) (*Match3KResult, error) {
	n := g.N()
	if n > MaxSearchN {
		return nil, fmt.Errorf("dk: 3K search limited to n <= %d, got %d", MaxSearchN, n)
	}
	m := g.NumEdges()
	want3K := Profile3K(g)
	want2K := JointDegree2K(g)
	pairs := make([][2]int, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	res := &Match3KResult{AllIsomorphic: true}
	cand := graph.New(n)
	var prev uint64
	for mask := uint64(0); mask < 1<<len(pairs); mask++ {
		if bits.OnesCount64(mask) != m {
			continue
		}
		diff := mask ^ prev
		for diff != 0 {
			b := bits.TrailingZeros64(diff)
			pr := pairs[b]
			cand.SetEdge(pr[0], pr[1], mask&(1<<b) != 0)
			diff &^= 1 << b
		}
		prev = mask
		if !cand.IsConnected() {
			continue
		}
		res.GraphsSearched++
		if !maps.Equal(JointDegree2K(cand), want2K) {
			continue
		}
		if !maps.Equal(Profile3K(cand), want3K) {
			continue
		}
		if !Isomorphic(cand, g) {
			res.AllIsomorphic = false
		}
		if limit <= 0 || len(res.Matches) < limit {
			res.Matches = append(res.Matches, cand.Clone())
		}
	}
	return res, nil
}

func countTrue(bs ...bool) int {
	c := 0
	for _, b := range bs {
		if b {
			c++
		}
	}
	return c
}

func sort3(d *[3]int) {
	if d[0] > d[1] {
		d[0], d[1] = d[1], d[0]
	}
	if d[1] > d[2] {
		d[1], d[2] = d[2], d[1]
	}
	if d[0] > d[1] {
		d[0], d[1] = d[1], d[0]
	}
}
