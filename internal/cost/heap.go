package cost

import (
	"math"
)

// nodeHeap is an indexed binary min-heap of node ids keyed by the shared
// tentative-distance array, with decrease-key support via a position index.
// Ties are broken toward lower node ids, so the pop sequence — and with it
// every distance, parent and the finalization order — is fully determined
// by the graph: it equals the order of a linear-scan Dijkstra that picks
// the lowest index among equal distances (the reference the equivalence
// tests compare against).
type nodeHeap struct {
	dist  []float64 // shared with the Dijkstra scratch; never resized here
	nodes []int32   // heap storage: nodes[0] is the minimum
	pos   []int32   // pos[v] = index of v in nodes, -1 when absent
}

// less orders nodes by (distance, id).
func (h *nodeHeap) less(a, b int32) bool {
	da, db := h.dist[a], h.dist[b]
	return da < db || (da == db && a < b)
}

// push inserts v, which must not be in the heap.
func (h *nodeHeap) push(v int32) {
	h.nodes = append(h.nodes, v)
	h.pos[v] = int32(len(h.nodes) - 1)
	h.up(len(h.nodes) - 1)
}

// popMin removes and returns the minimum node.
func (h *nodeHeap) popMin() int32 {
	root := h.nodes[0]
	h.pos[root] = -1
	last := len(h.nodes) - 1
	if last > 0 {
		h.nodes[0] = h.nodes[last]
		h.pos[h.nodes[0]] = 0
	}
	h.nodes = h.nodes[:last]
	if last > 1 {
		h.down(0)
	}
	return root
}

// decrease restores the heap order after v's key decreased.
func (h *nodeHeap) decrease(v int32) {
	h.up(int(h.pos[v]))
}

func (h *nodeHeap) up(i int) {
	v := h.nodes[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.nodes[p]) {
			break
		}
		h.nodes[i] = h.nodes[p]
		h.pos[h.nodes[i]] = int32(i)
		i = p
	}
	h.nodes[i] = v
	h.pos[v] = int32(i)
}

func (h *nodeHeap) down(i int) {
	v := h.nodes[i]
	n := len(h.nodes)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(h.nodes[r], h.nodes[c]) {
			c = r
		}
		if !h.less(h.nodes[c], v) {
			break
		}
		h.nodes[i] = h.nodes[c]
		h.pos[h.nodes[i]] = int32(i)
		i = c
	}
	h.nodes[i] = v
	h.pos[v] = int32(i)
}

// dijkstra computes shortest paths from src over the CSR snapshot (the
// caller must have run fillCSR on the graph being evaluated) into the
// scratch buffers, in O((n+m)·log n) — on the GA's sparse candidates well
// under a linear scan's O(n²) at every n the system runs. Edge relaxation
// walks the flat CSR slices: neighbor ids and pre-resolved edge lengths
// side by side, no bitset closure, no distance-matrix row chase. Distance
// ties break toward lower node indices. The finalization order (increasing
// distance) is recorded in e.dj.order; the return value is the number of
// reachable (finalized) nodes — entries of e.dj.order past it are stale on
// disconnected graphs and must not be read (consumers take order[:count]).
func (e *Evaluator) dijkstra(src int) int {
	n := e.n
	dist, parent, order, pos := e.dj.dist, e.dj.parent, e.dj.order, e.dj.hpos
	rowStart, cols, weights := e.csr.rowStart, e.csr.cols, e.csr.weights
	for i := 0; i < n; i++ {
		dist[i] = math.Inf(1)
		parent[i] = -1
		pos[i] = -1
	}
	h := nodeHeap{dist: dist, nodes: e.dj.hnodes[:0], pos: pos}
	dist[src] = 0
	h.push(int32(src))
	count := 0
	for len(h.nodes) > 0 {
		u := h.popMin()
		order[count] = u
		count++
		du := dist[u]
		for k := rowStart[u]; k < rowStart[u+1]; k++ {
			v := cols[k]
			if nd := du + weights[k]; nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				if pos[v] >= 0 {
					h.decrease(v)
				} else {
					h.push(v)
				}
			}
		}
	}
	e.dj.hnodes = h.nodes // keep the grown backing array for reuse
	return count
}
