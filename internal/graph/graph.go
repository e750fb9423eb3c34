// Package graph implements the undirected-graph substrate underlying COLD:
// candidate PoP-level topologies G(N,E) represented as adjacency bitsets,
// plus the structural algorithms the synthesis needs (connected components,
// minimum spanning trees, traversal, the packed form that keys cost
// memoization).
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
	"slices"
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
	return g.AppendEdges(make([]Edge, 0, g.edges))
}

// AppendEdges appends all edges in lexicographic order to buf and returns
// the result. Passing a reused buffer avoids allocation in hot loops.
func (g *Graph) AppendEdges(buf []Edge) []Edge {
	for i := 0; i < g.n; i++ {
		g.EachNeighbor(i, func(j int) {
			if j > i {
				buf = append(buf, Edge{i, j})
			}
		})
	}
	return buf
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

// CopyFrom makes g an exact copy of h in place, reusing g's storage.
// Panics unless g and h have the same node count.
func (g *Graph) CopyFrom(h *Graph) {
	if g.n != h.n {
		panic(fmt.Sprintf("graph: CopyFrom between %d and %d nodes", g.n, h.n))
	}
	copy(g.bits, h.bits)
	g.edges = h.edges
}

// Clear removes every edge, keeping g's storage.
func (g *Graph) Clear() {
	clear(g.bits)
	g.edges = 0
}

// BlendUpperRow sets the upper part of row i, columns j > i, to a's links
// where bit j of mask (mask[j/64], bit j%64) is set and to b's elsewhere,
// a word at a time: row = (a & mask) | (b &^ mask). Columns ≤ i of the
// row are cleared and the lower triangle is not kept in step, so the graph
// is not a valid undirected graph again until MirrorUpper runs. a and b
// must be valid graphs on g's node count; mask needs one word per row
// word.
func (g *Graph) BlendUpperRow(i int, a, b *Graph, mask []uint64) {
	if a.n != g.n || b.n != g.n {
		panic(fmt.Sprintf("graph: BlendUpperRow of %d and %d nodes into %d", a.n, b.n, g.n))
	}
	g.checkNode(i)
	w := g.words
	row, ra, rb := g.bits[i*w:(i+1)*w], a.bits[i*w:(i+1)*w], b.bits[i*w:(i+1)*w]
	mask = mask[:w]
	first := i / 64
	clear(row[:first])
	for k := first; k < w; k++ {
		m := mask[k]
		row[k] = ra[k]&m | rb[k]&^m
	}
	row[first] &= rightOf(i)
}

// MirrorUpper makes g a valid undirected graph from its upper triangle:
// every link {i<j} set in row i is copied into row j, whatever the lower
// triangle and the diagonal held before, and the edge count is recounted.
// It completes a sequence of BlendUpperRow calls. Rows are visited
// bottom-up: row i's lower part is cleared before any row above it
// mirrors a link into it.
func (g *Graph) MirrorUpper() {
	w := g.words
	edges := 0
	for i := g.n - 1; i >= 0; i-- {
		row := g.bits[i*w : (i+1)*w]
		first, bit := i/64, uint64(1)<<(uint(i)%64)
		clear(row[:first])
		row[first] &= rightOf(i)
		for k := first; k < w; k++ {
			for x := row[k]; x != 0; x &= x - 1 {
				j := k*64 + trailingZeros(x)
				g.bits[j*w+first] |= bit
				edges++
			}
		}
	}
	g.edges = edges
}

// rightOf returns the bits of column i's bitset word that hold columns
// j > i. Shifting by 64 (i%64 == 63) yields 0.
func rightOf(i int) uint64 { return ^uint64(0) << (uint(i)%64 + 1) }

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

// AppendUpper appends the packed upper triangle of the adjacency to dst
// and returns the result: bit k of the packed stream is the k-th pair
// {i<j} in lexicographic order (row 0's pairs first), in
// ⌈n(n−1)/2 / 64⌉ words, unused high bits zero. Two graphs on the same
// node count are Equal exactly when their packed forms are, and the form
// is n(n−1)/2 bits against the n² of the bitset — the cost memo stores it
// as its key.
func (g *Graph) AppendUpper(dst []uint64) []uint64 {
	n := g.n
	words := (n*(n-1)/2 + 63) / 64
	start := len(dst)
	dst = slices.Grow(dst, words)[:start+words]
	out := dst[start:]
	clear(out)
	off := 0 // bit offset into out
	for i := 0; i < n; i++ {
		row := g.bits[i*g.words : (i+1)*g.words]
		// Copy row bits i+1..n-1 a word at a time; bits at columns >= n
		// are always zero, so each chunk carries no stray high bits.
		for j := i + 1; j < n; {
			sh := uint(j) % 64
			cnt := min(64-int(sh), n-j)
			chunk := row[j/64] >> sh
			wi, bo := off/64, uint(off)%64
			out[wi] |= chunk << bo
			if int(bo)+cnt > 64 {
				out[wi+1] |= chunk >> (64 - bo)
			}
			off += cnt
			j += cnt
		}
	}
	return dst
}

// IsLeaf reports whether node i has degree exactly 1. The paper calls
// degree-1 PoPs "leaf" PoPs; all others with degree > 1 are "core"/hub PoPs.
func (g *Graph) IsLeaf(i int) bool { return g.Degree(i) == 1 }

// CoreNodes returns the nodes with degree > 1 (the set N_C in the paper's
// optimization objective, the nodes that incur the k3 hub cost).
func (g *Graph) CoreNodes() []int { return g.AppendCoreNodes(nil) }

// AppendCoreNodes appends the nodes with degree > 1 to buf, ascending, and
// returns the result. Passing a reused buffer avoids allocation.
func (g *Graph) AppendCoreNodes(buf []int) []int {
	for i := 0; i < g.n; i++ {
		if g.Degree(i) > 1 {
			buf = append(buf, i)
		}
	}
	return buf
}

// Components returns the connected components as slices of node indices.
// Isolated nodes form singleton components.
func (g *Graph) Components() [][]int {
	order, start := make([]int32, g.n), make([]int32, g.n+1)
	k := g.componentOrder(order, start, make([]int32, g.n), make([]uint64, g.words))
	comps := make([][]int, k)
	for c := range comps {
		for _, v := range order[start[c]:start[c+1]] {
			comps[c] = append(comps[c], int(v))
		}
	}
	return comps
}

// componentOrder lists every node grouped by connected component and
// returns the component count k. Component c is order[start[c]:start[c+1]]:
// components come in order of their lowest node, and each lists its nodes
// in discovery order of a depth-first walk from that node (pop the newest
// stacked node, discover its unseen neighbors in ascending order). order
// and stack need length n, start n+1, and seen (a bitset over the nodes)
// g.words zeroed words.
func (g *Graph) componentOrder(order, start, stack []int32, seen []uint64) int {
	k, m := 0, 0
	for s := 0; s < g.n; s++ {
		if seen[s/64]&(1<<(uint(s)%64)) != 0 {
			continue
		}
		start[k] = int32(m)
		k++
		seen[s/64] |= 1 << (uint(s) % 64)
		order[m] = int32(s)
		m++
		stack[0] = int32(s)
		for top := 1; top > 0; {
			top--
			v := int(stack[top])
			row := g.bits[v*g.words : (v+1)*g.words]
			for wi, w := range row {
				for w &^= seen[wi]; w != 0; w &= w - 1 {
					u := wi*64 + trailingZeros(w)
					seen[wi] |= 1 << (uint(u) % 64)
					order[m] = int32(u)
					m++
					stack[top] = int32(u)
					top++
				}
			}
		}
	}
	start[k] = int32(m)
	return k
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
//
// The spanning tree is Prim's algorithm over the components exactly as MST
// runs it on the component-pair weights (from component 0, strict-< ties
// toward the lower component), with each pair's weight and link computed
// only when Prim first needs it: the cross links of components a < b are
// scanned in their componentOrder order, keeping the first strict minimum.
// Connect allocates nothing for graphs of up to connectStack nodes.
func (g *Graph) Connect(dist [][]float64) int {
	if g.IsConnected() {
		return 0
	}
	var buf connectBuf
	sc := buf.scratch(g.n, g.words)
	k := g.componentOrder(sc.order, sc.start, sc.stack, sc.seen)
	comp := func(c int) []int32 { return sc.order[sc.start[c]:sc.start[c+1]] }
	// pair returns the shortest cross link between components a and b.
	pair := func(a, b int) (float64, int32, int32) {
		if a > b {
			a, b = b, a
		}
		w, la, lb := math.Inf(1), int32(0), int32(0)
		for _, x := range comp(a) {
			row := dist[x]
			for _, y := range comp(b) {
				if d := row[y]; d < w {
					w, la, lb = d, x, y
				}
			}
		}
		return w, la, lb
	}
	// Prim over the components; the stack buffer is free again and holds
	// the second endpoint of each component's best link.
	inTree, best, linkA, linkB := sc.inTree[:k], sc.best[:k], sc.linkA[:k], sc.stack[:k]
	inTree[0] = true
	for c := 1; c < k; c++ {
		best[c], linkA[c], linkB[c] = pair(0, c)
	}
	added := 0
	for it := 1; it < k; it++ {
		v, vw := -1, math.Inf(1)
		for c := 0; c < k; c++ {
			if !inTree[c] && best[c] < vw {
				v, vw = c, best[c]
			}
		}
		if v < 0 {
			break // some components unreachable (infinite distances)
		}
		inTree[v] = true
		g.AddEdge(int(linkA[v]), int(linkB[v]))
		added++
		for c := 0; c < k; c++ {
			if !inTree[c] {
				if w, a, b := pair(v, c); w < best[c] {
					best[c], linkA[c], linkB[c] = w, a, b
				}
			}
		}
	}
	return added
}

// connectStack is the node count up to which Connect keeps its scratch in
// a fixed-size connectBuf on the stack.
const connectStack = 64 * stackWords

// connectScratch is Connect's working memory: the component listing of
// componentOrder and Prim's per-component state.
type connectScratch struct {
	order, start, stack, linkA []int32
	seen                       []uint64
	inTree                     []bool
	best                       []float64
}

// connectBuf backs a connectScratch for up to connectStack nodes.
type connectBuf struct {
	order, stack, linkA [connectStack]int32
	start               [connectStack + 1]int32
	seen                [stackWords]uint64
	inTree              [connectStack]bool
	best                [connectStack]float64
}

// scratch returns a connectScratch for n nodes (words bitset words per
// row), carved from b when n fits and allocated otherwise.
func (b *connectBuf) scratch(n, words int) connectScratch {
	if n > connectStack {
		return connectScratch{
			order: make([]int32, n), start: make([]int32, n+1), stack: make([]int32, n), linkA: make([]int32, n),
			seen: make([]uint64, words), inTree: make([]bool, n), best: make([]float64, n),
		}
	}
	return connectScratch{
		order: b.order[:n], start: b.start[:n+1], stack: b.stack[:n], linkA: b.linkA[:n],
		seen: b.seen[:words], inTree: b.inTree[:n], best: b.best[:n],
	}
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
