package cost

// The per-source reference for the production Dijkstra kernel: the
// array-based O(n²) linear scan that picks, among unfinalized nodes, the
// lowest index at the smallest tentative distance. It shares nothing with
// the heap kernel but the CSR snapshot it routes over, so agreement on
// distances, parents, finalization order and reached count — bit for bit,
// no tolerances — is evidence about the kernel, not a tautology. The memo
// cache, the GA's determinism and the golden fixtures all rest on that
// agreement.

import (
	"math"
	"testing"

	"github.com/networksynth/cold/internal/graph"
)

// sourceRun is one single-source shortest-path result: distances, parents
// and the finalization order, whose length is the reached count.
type sourceRun struct {
	dist   []float64
	parent []int32
	order  []int32
}

// referenceDijkstra runs the linear scan from src over e's CSR snapshot
// (the caller must have run fillCSR on the graph) into fresh slices.
func referenceDijkstra(e *Evaluator, src int) sourceRun {
	n := e.n
	rowStart, cols, weights := e.csr.rowStart, e.csr.cols, e.csr.weights
	r := sourceRun{dist: make([]float64, n), parent: make([]int32, n), order: make([]int32, 0, n)}
	done := make([]bool, n)
	for i := range r.dist {
		r.dist[i] = math.Inf(1)
		r.parent[i] = -1
	}
	r.dist[src] = 0
	for {
		u, best := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !done[i] && r.dist[i] < best {
				u, best = i, r.dist[i]
			}
		}
		if u < 0 {
			return r // every remaining node is unreachable
		}
		done[u] = true
		r.order = append(r.order, int32(u))
		for k := rowStart[u]; k < rowStart[u+1]; k++ {
			v := cols[k]
			if nd := r.dist[u] + weights[k]; nd < r.dist[v] {
				r.dist[v] = nd
				r.parent[v] = int32(u)
			}
		}
	}
}

// kernelRun runs the production kernel from src with stop bound lo and
// copies its result out of the scratch, keeping only the finalized prefix
// of the order.
func kernelRun(e *Evaluator, src, lo int) (sourceRun, bool) {
	count, ok := e.dijkstra(src, lo)
	return sourceRun{
		dist:   append([]float64(nil), e.dj.dist...),
		parent: append([]int32(nil), e.dj.parent...),
		order:  append([]int32(nil), e.dj.order[:count]...),
	}, ok
}

// checkKernelAgainstReference fails the test unless the production kernel
// and the reference agree bit for bit from every source s of g, both
// routing the whole component (lo = 0, as Evaluate does) and stopped early
// (lo = s+1, as Cost does). Either way the kernel must finalize a prefix
// of the reference's order, with the reference's distances and parents on
// it, that ends at the last node ≥ lo when every such node is reachable
// (ok) and covers the whole reachable set otherwise (not ok). With lo = 0
// every node's distance and parent must match, unreached ones included.
func checkKernelAgainstReference(t *testing.T, label string, e *Evaluator, g *graph.Graph) {
	t.Helper()
	n := e.n
	e.fillCSR(g)
	for s := 0; s < n; s++ {
		want := referenceDijkstra(e, s)
		los := []int{0}
		if s+1 < n {
			los = append(los, s+1)
		}
		for _, lo := range los {
			got, ok := kernelRun(e, s, lo)
			end, above := len(want.order), 0
			for k, v := range want.order {
				if int(v) >= lo {
					if above++; above == n-lo {
						end = k + 1
						break
					}
				}
			}
			if ok != (above == n-lo) || len(got.order) != end {
				t.Fatalf("%s: source %d lo %d finalizes %d nodes (ok %v), want %d (ok %v)",
					label, s, lo, len(got.order), ok, end, above == n-lo)
			}
			for k, v := range got.order {
				if v != want.order[k] {
					t.Fatalf("%s: source %d lo %d finalizes %d at step %d, reference %d", label, s, lo, v, k, want.order[k])
				}
			}
			check := got.order
			if lo == 0 {
				check = make([]int32, n)
				for v := range check {
					check[v] = int32(v)
				}
			}
			for _, v := range check {
				if math.Float64bits(got.dist[v]) != math.Float64bits(want.dist[v]) || got.parent[v] != want.parent[v] {
					t.Fatalf("%s: source %d lo %d node %d: dist %v parent %d, reference %v parent %d",
						label, s, lo, v, got.dist[v], got.parent[v], want.dist[v], want.parent[v])
				}
			}
		}
	}
}

// referenceEvaluate is Evaluate with every source routed by the reference
// scan: the same load accumulation (pushLoads) and breakdown (fillBreakdown)
// over the reference's trees.
func referenceEvaluate(e *Evaluator, g *graph.Graph) *Evaluation {
	n := e.n
	e.fillCSR(g)
	clear(e.dj.load)
	ev := &Evaluation{Connected: true, Routing: &Routing{PathDist: make([][]float64, n), Parent: make([][]int32, n)}}
	for s := 0; s < n; s++ {
		r := referenceDijkstra(e, s)
		ev.Routing.PathDist[s], ev.Routing.Parent[s] = r.dist, r.parent
		if len(r.order) != n {
			ev.Connected = false
		}
		if ev.Connected {
			e.pushLoads(s, r.parent, r.order)
		}
	}
	if !ev.Connected {
		ev.Total = math.Inf(1)
		return ev
	}
	e.fillBreakdown(ev, g)
	return ev
}

// RouteCost returns Σ_r t_r·L_r over all unordered PoP pairs: the
// route-length-weighted traffic of equation (1) in the paper. It uses the
// same routing as Cost, so k2·Σℓ_i·w_i == k2·RouteCost, the identity the
// tests pin with it as the oracle. Returns +Inf for disconnected graphs.
// Only tests need it, so it lives beside them.
func (e *Evaluator) RouteCost(g *graph.Graph) float64 {
	n := e.n
	e.fillCSR(g)
	var total float64
	for s := 0; s < n; s++ {
		e.dijkstra(s, 0)
		for d := s + 1; d < n; d++ {
			if math.IsInf(e.dj.dist[d], 1) {
				return math.Inf(1)
			}
			total += e.tm.Demand[s][d] * e.dj.dist[d]
		}
	}
	return total
}

// referenceRouteCost is RouteCost over the reference's distances.
func referenceRouteCost(e *Evaluator, g *graph.Graph) float64 {
	e.fillCSR(g)
	var total float64
	for s := 0; s < e.n; s++ {
		r := referenceDijkstra(e, s)
		for d := s + 1; d < e.n; d++ {
			if math.IsInf(r.dist[d], 1) {
				return math.Inf(1)
			}
			total += e.tm.Demand[s][d] * r.dist[d]
		}
	}
	return total
}
