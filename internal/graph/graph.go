// Package graph implements the undirected-graph substrate underlying COLD:
// candidate PoP-level topologies G(N,E) represented as adjacency bitsets,
// plus the structural algorithms the synthesis needs (connected components,
// minimum spanning trees, traversal, hashing for cost memoization).
//
// Graphs are simple (no self loops, no multi-edges) and undirected. Node
// identity is the integer index 0..n-1; spatial coordinates, populations and
// traffic live in the caller's context, keeping this package purely
// structural.
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Graph is a simple undirected graph on n nodes stored as per-row adjacency
// bitsets. The representation is compact (n²/8 bytes), cheap to clone —
// which the genetic algorithm does constantly — and supports O(1) edge
// tests and fast neighbor iteration.
type Graph struct {
	n     int
	words int      // words per row
	bits  []uint64 // n*words, row i at bits[i*words : (i+1)*words]
	edges int
}

// New returns an empty graph on n nodes. n must be non-negative.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	w := (n + 63) / 64
	return &Graph{n: n, words: w, bits: make([]uint64, n*w)}
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// FromEdges builds a graph on n nodes with the given edges. Duplicate edges
// are collapsed; self loops are rejected.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		i, j := e[0], e[1]
		if i == j {
			return nil, fmt.Errorf("graph: self loop on node %d", i)
		}
		if i < 0 || i >= n || j < 0 || j >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", i, j, n)
		}
		g.AddEdge(i, j)
	}
	return g, nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// HasEdge reports whether the edge {i,j} is present.
func (g *Graph) HasEdge(i, j int) bool {
	return g.bits[i*g.words+j/64]&(1<<(uint(j)%64)) != 0
}

// AddEdge inserts the edge {i,j}. Adding an existing edge or a self loop is
// a no-op. Panics if i or j is out of range.
func (g *Graph) AddEdge(i, j int) {
	if i == j {
		return
	}
	g.checkNode(i)
	g.checkNode(j)
	if g.HasEdge(i, j) {
		return
	}
	g.bits[i*g.words+j/64] |= 1 << (uint(j) % 64)
	g.bits[j*g.words+i/64] |= 1 << (uint(i) % 64)
	g.edges++
}

// RemoveEdge deletes the edge {i,j} if present.
func (g *Graph) RemoveEdge(i, j int) {
	if i == j {
		return
	}
	g.checkNode(i)
	g.checkNode(j)
	if !g.HasEdge(i, j) {
		return
	}
	g.bits[i*g.words+j/64] &^= 1 << (uint(j) % 64)
	g.bits[j*g.words+i/64] &^= 1 << (uint(i) % 64)
	g.edges--
}

// SetEdge adds or removes {i,j} according to present.
func (g *Graph) SetEdge(i, j int, present bool) {
	if present {
		g.AddEdge(i, j)
	} else {
		g.RemoveEdge(i, j)
	}
}

func (g *Graph) checkNode(i int) {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", i, g.n))
	}
}

// Degree returns the degree of node i.
func (g *Graph) Degree(i int) int {
	row := g.bits[i*g.words : (i+1)*g.words]
	d := 0
	for _, w := range row {
		d += popcount(w)
	}
	return d
}

// Degrees returns the degree of every node.
func (g *Graph) Degrees() []int {
	ds := make([]int, g.n)
	for i := range ds {
		ds[i] = g.Degree(i)
	}
	return ds
}

// Neighbors appends the neighbors of node i to buf and returns the result.
// Passing a reused buffer avoids allocation in hot loops.
func (g *Graph) Neighbors(i int, buf []int) []int {
	row := g.bits[i*g.words : (i+1)*g.words]
	for wi, w := range row {
		base := wi * 64
		for w != 0 {
			b := trailingZeros(w)
			buf = append(buf, base+b)
			w &= w - 1
		}
	}
	return buf
}

// EachNeighbor calls fn for every neighbor of node i in ascending order.
func (g *Graph) EachNeighbor(i int, fn func(j int)) {
	row := g.bits[i*g.words : (i+1)*g.words]
	for wi, w := range row {
		base := wi * 64
		for w != 0 {
			fn(base + trailingZeros(w))
			w &= w - 1
		}
	}
}

// AppendCSR fills a compressed-sparse-row view of the adjacency into the
// caller's buffers: rowStart must have length n+1 and receives the per-row
// offsets (row i's neighbors live at cols[rowStart[i]:rowStart[i+1]], in
// ascending order — the same order EachNeighbor visits); columns are
// appended to cols (normally passed as buf[:0]) and the filled slice is
// returned. One pass over the bitset, 2·|E| entries, no allocation once
// cols has capacity — evaluation hot loops rebuild the view on pooled
// buffers for every candidate.
func (g *Graph) AppendCSR(rowStart []int32, cols []int32) []int32 {
	if len(rowStart) != g.n+1 {
		panic(fmt.Sprintf("graph: AppendCSR rowStart has length %d, want %d", len(rowStart), g.n+1))
	}
	for i := 0; i < g.n; i++ {
		rowStart[i] = int32(len(cols))
		row := g.bits[i*g.words : (i+1)*g.words]
		for wi, w := range row {
			base := wi * 64
			for w != 0 {
				cols = append(cols, int32(base+trailingZeros(w)))
				w &= w - 1
			}
		}
	}
	rowStart[g.n] = int32(len(cols))
	return cols
}

// Edge is an undirected edge with I < J.
type Edge struct {
	I, J int
}

// Edges returns all edges in lexicographic order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for i := 0; i < g.n; i++ {
		g.EachNeighbor(i, func(j int) {
			if j > i {
				out = append(out, Edge{i, j})
			}
		})
	}
	return out
}

// DiffCount returns the number of edges present in exactly one of g and h.
// Panics unless g and h have the same node count.
func (g *Graph) DiffCount(h *Graph) int {
	if g.n != h.n {
		panic(fmt.Sprintf("graph: DiffCount between %d and %d nodes", g.n, h.n))
	}
	// Each differing undirected edge sets two bits (one per endpoint row).
	d := 0
	for i, w := range g.bits {
		d += popcount(w ^ h.bits[i])
	}
	return d / 2
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, words: g.words, edges: g.edges}
	c.bits = make([]uint64, len(g.bits))
	copy(c.bits, g.bits)
	return c
}

// Equal reports whether g and h have identical node counts and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.edges != h.edges {
		return false
	}
	for i, w := range g.bits {
		if h.bits[i] != w {
			return false
		}
	}
	return true
}

// Hash returns an FNV-1a style hash of the adjacency bitset, suitable for
// memoizing cost evaluations. Equal graphs always hash equally.
func (g *Graph) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ uint64(g.n)
	for _, w := range g.bits {
		h ^= w
		h *= prime
	}
	return h
}

// IsLeaf reports whether node i has degree exactly 1. The paper calls
// degree-1 PoPs "leaf" PoPs; all others with degree > 1 are "core"/hub PoPs.
func (g *Graph) IsLeaf(i int) bool { return g.Degree(i) == 1 }

// CoreNodes returns the nodes with degree > 1 (the set N_C in the paper's
// optimization objective, the nodes that incur the k3 hub cost).
func (g *Graph) CoreNodes() []int {
	var out []int
	for i := 0; i < g.n; i++ {
		if g.Degree(i) > 1 {
			out = append(out, i)
		}
	}
	return out
}

// Components returns the connected components as slices of node indices.
// Isolated nodes form singleton components.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	queue := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			g.EachNeighbor(v, func(u int) {
				if !seen[u] {
					seen[u] = true
					comp = append(comp, u)
					queue = append(queue, u)
				}
			})
		}
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether the graph is connected. The empty graph and
// the single-node graph are connected. It floods node 0's component a row
// of the adjacency bitset at a time, and allocates nothing for graphs of
// up to 64·stackWords nodes.
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	var seenBuf, doneBuf [stackWords]uint64
	seen, done := seenBuf[:], doneBuf[:]
	if g.words > stackWords {
		seen, done = make([]uint64, g.words), make([]uint64, g.words)
	}
	seen, done = seen[:g.words], done[:g.words]
	seen[0] = 1
	for grew := true; grew; {
		grew = false
		for wi := range seen {
			todo := seen[wi] &^ done[wi]
			done[wi] |= todo
			for w := todo; w != 0; w &= w - 1 {
				v := wi*64 + trailingZeros(w)
				for k, r := range g.bits[v*g.words : (v+1)*g.words] {
					seen[k] |= r
				}
				grew = true
			}
		}
	}
	count := 0
	for _, w := range seen {
		count += popcount(w)
	}
	return count == g.n
}

// stackWords is the bitset width IsConnected keeps on the stack.
const stackWords = 4

// BFSHops returns hop distances from src to every node; unreachable nodes
// get -1.
func (g *Graph) BFSHops(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.EachNeighbor(v, func(u int) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		})
	}
	return dist
}

// MST returns the minimum spanning tree of the complete graph on n nodes
// under the given symmetric weight matrix (Prim's algorithm, O(n²)). The
// paper uses physical-distance MSTs both as a GA seed topology and inside
// the connectivity repair step. For n <= 1 the MST is the empty graph.
func MST(n int, weight [][]float64) *Graph {
	t := New(n)
	if n <= 1 {
		return t
	}
	inTree := make([]bool, n)
	best := make([]float64, n)
	bestFrom := make([]int, n)
	for i := range best {
		best[i] = math.Inf(1)
		bestFrom[i] = -1
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		best[j] = weight[0][j]
		bestFrom[j] = 0
	}
	for it := 1; it < n; it++ {
		v, vw := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if !inTree[j] && best[j] < vw {
				v, vw = j, best[j]
			}
		}
		if v < 0 {
			break // disconnected weight matrix (infinite weights)
		}
		inTree[v] = true
		t.AddEdge(v, bestFrom[v])
		for j := 0; j < n; j++ {
			if !inTree[j] && weight[v][j] < best[j] {
				best[j] = weight[v][j]
				bestFrom[j] = v
			}
		}
	}
	return t
}

// Connect makes g connected in place by joining its connected components
// with the cheapest available links: for every pair of components the
// shortest cross link (under dist) is found, then a minimum spanning tree
// over the component graph selects which of those links to add. This is the
// repair step of §4.1.3 and returns the number of links added.
func (g *Graph) Connect(dist [][]float64) int {
	if g.IsConnected() {
		return 0
	}
	comps := g.Components()
	k := len(comps)
	// Shortest cross link between each pair of components.
	type link struct {
		a, b int
	}
	bestW := make([][]float64, k)
	bestL := make([][]link, k)
	for i := range bestW {
		bestW[i] = make([]float64, k)
		bestL[i] = make([]link, k)
		for j := range bestW[i] {
			bestW[i][j] = math.Inf(1)
		}
	}
	for ci := 0; ci < k; ci++ {
		for cj := ci + 1; cj < k; cj++ {
			for _, a := range comps[ci] {
				for _, b := range comps[cj] {
					if d := dist[a][b]; d < bestW[ci][cj] {
						bestW[ci][cj] = d
						bestW[cj][ci] = d
						bestL[ci][cj] = link{a, b}
						bestL[cj][ci] = link{a, b}
					}
				}
			}
		}
	}
	mst := MST(k, bestW)
	added := 0
	for _, e := range mst.Edges() {
		l := bestL[e.I][e.J]
		g.AddEdge(l.a, l.b)
		added++
	}
	return added
}

// String renders the graph as "n=5 edges=[(0,1) (1,2)]", mainly for tests
// and debugging.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d edges=[", g.n)
	for i, e := range g.Edges() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "(%d,%d)", e.I, e.J)
	}
	b.WriteByte(']')
	return b.String()
}

// Permute returns the graph relabeled by perm: edge {i,j} becomes
// {perm[i], perm[j]}. perm must be a permutation of 0..n-1.
func (g *Graph) Permute(perm []int) *Graph {
	h := New(g.n)
	for _, e := range g.Edges() {
		h.AddEdge(perm[e.I], perm[e.J])
	}
	return h
}

func popcount(w uint64) int { return bits.OnesCount64(w) }

func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }
