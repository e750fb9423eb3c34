package cost

import (
	"math"
)

// dijkstra computes shortest paths from src over the CSR snapshot (the
// caller must have run fillCSR on the graph being evaluated) into the
// scratch buffers, in O((n+m)·log n). It is the evaluator's one routing
// kernel: an indexed binary min-heap fused into the relaxation loop, each
// entry's key held inline in keys beside its node in nodes (pos[v] is v's
// heap index, -1 when absent), so sifts compare keys without chasing
// dist[id]. Push and decrease-key share one sift-up; pop sifts the last
// entry down from the root. Entries are ordered by (distance, id): ties
// break toward lower node ids, and since no two entries share a key, the
// pop sequence — and with it every distance, parent and the finalization
// order — is a function of the graph alone, equal to that of the linear
// scan that picks the lowest index among equal distances (the reference
// the equivalence tests compare against).
//
// The kernel stops as soon as every node ≥ lo is finalized, before
// relaxing the last one; lo = 0 routes the whole component of src. The
// stop counter subtracts a 0/1 flag rather than branching on the node id:
// whether a popped node is ≥ lo is close to a coin flip, and a branch on
// it mispredicted enough to cost more than the early stop saved. The
// finalization order
// is recorded in e.dj.order; count is the number of finalized nodes —
// entries past it are stale and must not be read (consumers take
// order[:count]) — and ok reports whether every node ≥ lo was reached.
// Distances and parents are final for the nodes in order[:count] only.
func (e *Evaluator) dijkstra(src, lo int) (count int, ok bool) {
	n := e.n
	dist, parent, order := e.dj.dist, e.dj.parent, e.dj.order
	keys, nodes, pos := e.dj.keys, e.dj.nodes, e.dj.pos
	rowStart, cols, weights := e.csr.rowStart, e.csr.cols, e.csr.weights
	for i := 0; i < n; i++ {
		dist[i] = math.Inf(1)
		parent[i] = -1
		pos[i] = -1
	}
	dist[src] = 0
	keys[0], nodes[0], pos[src] = 0, int32(src), 0
	size, left := 1, n-lo
	for size > 0 {
		u := nodes[0]
		pos[u] = -1
		order[count] = u
		count++
		var hit int
		if int(u) >= lo {
			hit = 1
		}
		if left -= hit; left <= 0 {
			break
		}
		if size--; size > 0 {
			kv, v := keys[size], nodes[size]
			i := 0
			for c := 1; c < size; c = 2*i + 1 {
				kc, nc := keys[c], nodes[c]
				if r := c + 1; r < size && (keys[r] < kc || keys[r] == kc && nodes[r] < nc) {
					c, kc, nc = r, keys[r], nodes[r]
				}
				if kv < kc || kv == kc && v < nc {
					break
				}
				keys[i], nodes[i], pos[nc] = kc, nc, int32(i)
				i = c
			}
			keys[i], nodes[i], pos[v] = kv, v, int32(i)
		}
		du := dist[u]
		for k := rowStart[u]; k < rowStart[u+1]; k++ {
			v := cols[k]
			if nd := du + weights[k]; nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				i := int(pos[v])
				if i < 0 {
					i = size
					size++
				}
				for i > 0 {
					p := (i - 1) / 2
					kp, np := keys[p], nodes[p]
					if kp < nd || kp == nd && np < v {
						break
					}
					keys[i], nodes[i], pos[np] = kp, np, int32(i)
					i = p
				}
				keys[i], nodes[i], pos[v] = nd, v, int32(i)
			}
		}
	}
	return count, left <= 0
}
