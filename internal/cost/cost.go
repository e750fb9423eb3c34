// Package cost implements COLD's optimization objective (§3.2 of the
// paper): shortest-path routing over candidate topologies, the per-link
// capacities w_i implied by the traffic matrix, and the four-parameter cost
//
//	Σ_{i∈E} (k0 + k1·ℓ_i + k2·ℓ_i·w_i)  +  k3·|{j : degree(j) > 1}|
//
// The Evaluator is the hot path of the whole system — the genetic algorithm
// calls Cost on every candidate in every generation — so it routes with an
// indexed-binary-heap Dijkstra over a pooled CSR snapshot of the candidate,
// accumulates link loads along shortest-path trees in O(n) per source,
// reuses scratch buffers (steady-state evaluation allocates nothing), and
// memoizes results keyed by the candidate's packed upper triangle (GA
// populations converge, so identical candidates recur constantly).
// Every evaluation that misses the memo is one full all-sources sweep; the
// equivalence test suite checks the kernel bit for bit against a
// linear-scan reference kept in test code.
package cost

import (
	"fmt"
	"math"

	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/telemetry"
	"github.com/networksynth/cold/internal/traffic"
)

// Params are the cost coefficients k0..k3. Costs are relative, so the paper
// fixes k1 = 1 and tunes the other three.
type Params struct {
	K0 float64 // per-link existence cost
	K1 float64 // per-unit-length cost (trenches, conduits)
	K2 float64 // per-unit-length per-unit-bandwidth cost
	K3 float64 // complexity cost of each non-leaf ("core"/hub) PoP
}

// DefaultParams returns the baseline used throughout the paper's
// experiments: k0 = 10, k1 = 1, with k2 and k3 swept per figure. The
// defaults here pick a mid-range k2 and no hub cost.
func DefaultParams() Params {
	return Params{K0: 10, K1: 1, K2: 1e-4, K3: 0}
}

// Validate rejects negative or non-finite coefficients.
func (p Params) Validate() error {
	for _, v := range []struct {
		name string
		val  float64
	}{{"k0", p.K0}, {"k1", p.K1}, {"k2", p.K2}, {"k3", p.K3}} {
		if v.val < 0 || math.IsNaN(v.val) || math.IsInf(v.val, 0) {
			return fmt.Errorf("cost: %s = %v must be non-negative and finite", v.name, v.val)
		}
	}
	return nil
}

// String renders the parameters compactly.
func (p Params) String() string {
	return fmt.Sprintf("k0=%g k1=%g k2=%g k3=%g", p.K0, p.K1, p.K2, p.K3)
}

// Routing holds shortest-path trees for every source: PathDist[s][v] is the
// physical length of the shortest s→v path and Parent[s][v] the predecessor
// of v on it (-1 for the source itself or unreachable nodes). Ties are
// broken toward lower node indices, so routing is deterministic.
type Routing struct {
	PathDist [][]float64
	Parent   [][]int32
}

// Path returns the node sequence from s to d (inclusive), or nil if d is
// unreachable from s.
func (r *Routing) Path(s, d int) []int {
	if s == d {
		return []int{s}
	}
	if r.Parent[s][d] < 0 {
		return nil
	}
	var rev []int
	for v := d; v != s; v = int(r.Parent[s][v]) {
		rev = append(rev, v)
	}
	rev = append(rev, s)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Evaluation is the full breakdown of a topology's cost, together with the
// link capacities and the routing that produced them.
type Evaluation struct {
	Total         float64
	LinkTotal     float64 // Σ per-link costs (Existence+Length+Bandwidth, to rounding)
	ExistenceCost float64 // Σ k0
	LengthCost    float64 // Σ k1·ℓ
	BandwidthCost float64 // Σ k2·ℓ·w
	NodeCost      float64 // k3·|core nodes|
	Connected     bool
	CoreCount     int
	Edges         []graph.Edge
	Lengths       []float64 // ℓ_i, aligned with Edges
	Capacities    []float64 // w_i, aligned with Edges
	Routing       *Routing
}

// Evaluator computes topology costs for one fixed context (distance matrix
// + traffic matrix + parameters). A single Evaluator is not safe for
// concurrent use — it reuses internal scratch buffers between calls — but
// Clone returns additional evaluators for the same context that share the
// thread-safe memoization cache, so one evaluator per goroutine scales the
// hot path across cores.
type Evaluator struct {
	dist   [][]float64
	tm     *traffic.Matrix
	params Params

	n int

	// dflat is the traffic matrix flattened to n² (dflat[s*n+d] ==
	// tm.Demand[s][d]), built once and shared (immutably) with Clones so
	// pushLoads can bulk-copy a source's demand row without pointer
	// chasing.
	dflat []float64

	// Dijkstra scratch.
	dj struct {
		dist   []float64
		parent []int32
		order  []int32
		acc    []float64
		load   []float64 // n×n flattened link loads
		hnodes []int32   // heap storage
		hpos   []int32   // heap position index
	}

	// csr is the flat-memory snapshot of the graph being evaluated: the
	// adjacency in compressed-sparse-row form with edge lengths pre-resolved
	// from the distance matrix. fillCSR rebuilds it in one bitset pass per
	// evaluation; all n per-source Dijkstra runs (and sumCost) then walk
	// flat slices instead of bitset closures and never chase distance-matrix
	// row pointers. The buffers are pooled per Evaluator (cols/weights keep
	// their high-water capacity), so steady-state evaluation is zero-alloc.
	csr struct {
		rowStart []int32   // n+1 row offsets
		cols     []int32   // neighbor of each directed edge slot
		weights  []float64 // dist[i][cols[k]] for each slot, aligned with cols
	}

	// Memoized costs keyed by the packed upper triangle of the graph
	// (graph.AppendUpper), hashed to pick a bucket and compared word for
	// word to rule out collisions. Shared (and safe to share) across
	// Clones; key is this evaluator's packing buffer.
	cache *sharedCache
	key   []uint64

	// counters are the always-on observability counters (stats.go), shared
	// across Clones like the cache. durHist, when non-nil, observes the
	// wall time of real evaluations (SetDurationHistogram).
	counters *evalCounters
	durHist  *telemetry.Histogram
}

// DefaultCacheLimit bounds the number of memoized topologies before the
// cache resets.
const DefaultCacheLimit = 1 << 16

// NewEvaluator builds an evaluator for a context. dist must be an n×n
// symmetric matrix of PoP distances and tm an n-PoP traffic matrix.
func NewEvaluator(dist [][]float64, tm *traffic.Matrix, params Params) (*Evaluator, error) {
	n := len(dist)
	if tm.N() != n {
		return nil, fmt.Errorf("cost: distance matrix is %d×%d but traffic matrix has %d PoPs", n, n, tm.N())
	}
	for i, row := range dist {
		if len(row) != n {
			return nil, fmt.Errorf("cost: distance row %d has %d entries, want %d", i, len(row), n)
		}
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{dist: dist, tm: tm, params: params, n: n, cache: newSharedCache(DefaultCacheLimit), counters: &evalCounters{}}
	e.dflat = make([]float64, n*n)
	for s := 0; s < n; s++ {
		copy(e.dflat[s*n:(s+1)*n], tm.Demand[s])
	}
	e.initScratch()
	return e, nil
}

// NewEvaluatorOptions is NewEvaluator; opts is ignored.
//
// Deprecated: Options has nothing left to select (see Switch). Use
// NewEvaluator.
func NewEvaluatorOptions(dist [][]float64, tm *traffic.Matrix, params Params, opts Options) (*Evaluator, error) {
	return NewEvaluator(dist, tm, params)
}

func (e *Evaluator) initScratch() {
	n := e.n
	e.dj.dist = make([]float64, n)
	e.dj.parent = make([]int32, n)
	e.dj.order = make([]int32, n)
	e.dj.acc = make([]float64, n)
	e.dj.load = make([]float64, n*n)
	e.dj.hnodes = make([]int32, 0, n)
	e.dj.hpos = make([]int32, n)
	e.csr.rowStart = make([]int32, n+1)
}

// Clone returns an Evaluator for the same context that may be used from a
// different goroutine than e. The clone shares the (immutable) distance
// matrix, traffic matrix and parameters, the thread-safe memoization
// cache — a topology costed by any clone is a cache hit for all of them —
// and the observability counters and duration histogram, but owns its
// scratch buffers. Each goroutine must still use its own Evaluator.
func (e *Evaluator) Clone() *Evaluator {
	c := &Evaluator{dist: e.dist, tm: e.tm, params: e.params, n: e.n,
		dflat: e.dflat, cache: e.cache, counters: e.counters, durHist: e.durHist}
	c.initScratch()
	return c
}

// MustNewEvaluator is NewEvaluator for contexts known to be well-formed;
// it panics on error. Intended for tests and internal callers.
func MustNewEvaluator(dist [][]float64, tm *traffic.Matrix, params Params) *Evaluator {
	e, err := NewEvaluator(dist, tm, params)
	if err != nil {
		panic(err)
	}
	return e
}

// N returns the number of PoPs in the context.
func (e *Evaluator) N() int { return e.n }

// Dist returns the PoP distance matrix (shared, not copied).
func (e *Evaluator) Dist() [][]float64 { return e.dist }

// Traffic returns the traffic matrix.
func (e *Evaluator) Traffic() *traffic.Matrix { return e.tm }

// SetCacheLimit overrides the cache reset threshold for the evaluator and
// all its Clones. A limit of zero disables memoization.
func (e *Evaluator) SetCacheLimit(limit int) { e.cache.setLimit(limit) }

// Cost returns the total cost of g, memoized. Disconnected topologies
// cannot carry the traffic and get +Inf, as does any topology whose cost
// sum is not finite: Cost never returns NaN, so costs are totally ordered.
func (e *Evaluator) Cost(g *graph.Graph) float64 {
	if g.N() != e.n {
		panic(fmt.Sprintf("cost: graph has %d nodes, context has %d", g.N(), e.n))
	}
	if !e.cache.enabled() {
		e.cache.misses.Add(1)
		return e.computeCost(g)
	}
	e.key = g.AppendUpper(e.key[:0])
	h := hashKey(e.key)
	if c, ok := e.cache.lookup(h, e.key); ok {
		return c
	}
	c := e.computeCost(g)
	e.cache.store(h, e.key, c)
	return c
}

// CostDelta returns Cost(g); base and changed are ignored.
//
// Deprecated: the incremental evaluation path this entry point served no
// longer exists — over whole GA runs it was no faster than full sweeps.
// The method remains so that code written against earlier releases,
// perfbench among it, still compiles. Use Cost.
func (e *Evaluator) CostDelta(base, g *graph.Graph, changed []graph.Edge) float64 { return e.Cost(g) }

// computeCost is the uncached fast path: routes, accumulates loads, sums
// the objective. It does not materialize per-edge slices.
func (e *Evaluator) computeCost(g *graph.Graph) float64 {
	span := e.startSpan()
	var c float64
	if !e.routeAndLoad(g, nil) {
		c = math.Inf(1)
	} else {
		c = e.sumCost()
	}
	e.observe(span)
	return c
}

// sumCost folds e.dj.load into the objective: Σ per-link costs plus the k3
// hub term, walking the CSR snapshot (which must hold the graph whose loads
// fill e.dj.load — every caller routes through fillCSR first). The edge
// lengths come pre-resolved from csr.weights, the iteration order matches
// the old bitset walk (ascending i, ascending j within each row), and
// fillBreakdown mirrors it term for term, so Evaluate(g).Total == Cost(g)
// exactly. A sum that overflows comes back as +Inf (finiteOrInf).
func (e *Evaluator) sumCost() float64 {
	p := e.params
	var linkCost float64
	core := 0
	n := e.n
	rowStart, cols, weights := e.csr.rowStart, e.csr.cols, e.csr.weights
	load := e.dj.load
	for i := 0; i < n; i++ {
		start, end := rowStart[i], rowStart[i+1]
		for k := start; k < end; k++ {
			j := int(cols[k])
			if j > i {
				l := weights[k]
				linkCost += p.K0 + p.K1*l + p.K2*l*load[i*n+j]
			}
		}
		if end-start > 1 {
			core++
		}
	}
	return finiteOrInf(linkCost + p.K3*float64(core))
}

// finiteOrInf maps a non-finite cost sum to +Inf. Overflow can make the
// sum +Inf or, through 0·Inf, NaN; folding both to +Inf keeps every cost
// the evaluator returns totally ordered, so the GA's sort and selection
// never see NaN.
func finiteOrInf(c float64) float64 {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return math.Inf(1)
	}
	return c
}

// fillCSR rebuilds the pooled CSR snapshot for g: one bitset pass for the
// columns, one flat pass resolving each slot's edge length from the
// distance matrix. After it returns, the Dijkstra kernel and sumCost
// operate on g without touching the Graph or the 2-D distance matrix.
func (e *Evaluator) fillCSR(g *graph.Graph) {
	c := &e.csr
	c.cols = g.AppendCSR(c.rowStart, c.cols[:0])
	m := len(c.cols)
	if cap(c.weights) < m {
		c.weights = make([]float64, m)
	} else {
		c.weights = c.weights[:m]
	}
	for i := 0; i < e.n; i++ {
		row := e.dist[i]
		for k := c.rowStart[i]; k < c.rowStart[i+1]; k++ {
			c.weights[k] = row[c.cols[k]]
		}
	}
}

// CostUncached computes the cost of g without touching the memoization
// cache. Use it for exhaustive sweeps (e.g. brute force) whose candidates
// never recur, where caching only wastes memory.
func (e *Evaluator) CostUncached(g *graph.Graph) float64 {
	if g.N() != e.n {
		panic(fmt.Sprintf("cost: graph has %d nodes, context has %d", g.N(), e.n))
	}
	return e.computeCost(g)
}

// Evaluate returns the full cost breakdown including capacities and
// routing. It is not memoized; use it for final results, not in the GA
// loop. A single all-sources Dijkstra sweep fills both the routing tables
// and the link loads, and the fused per-edge accumulation mirrors
// computeCost term for term, so Evaluate(g).Total == Cost(g) exactly (not
// merely within tolerance).
func (e *Evaluator) Evaluate(g *graph.Graph) *Evaluation {
	span := e.startSpan()
	defer e.observe(span)
	ev := &Evaluation{}
	n := e.n
	rt := &Routing{
		PathDist: make([][]float64, n),
		Parent:   make([][]int32, n),
	}
	ev.Routing = rt
	ev.Connected = e.routeAndLoad(g, rt)
	if !ev.Connected {
		ev.Total = math.Inf(1)
		return ev
	}
	e.fillBreakdown(ev, g)
	return ev
}

// fillBreakdown completes an Evaluation whose routing succeeded: per-edge
// slices, the fused LinkTotal (same expression and edge order as sumCost,
// so Evaluate(g).Total == Cost(g) exactly), the per-term breakdown, and
// the node cost. Callers must have e.dj.load filled for g.
func (e *Evaluator) fillBreakdown(ev *Evaluation, g *graph.Graph) {
	p := e.params
	n := e.n
	ev.Edges = g.Edges()
	ev.Lengths = make([]float64, len(ev.Edges))
	ev.Capacities = make([]float64, len(ev.Edges))
	for i, edge := range ev.Edges {
		l := e.dist[edge.I][edge.J]
		w := e.dj.load[edge.I*n+edge.J]
		ev.Lengths[i] = l
		ev.Capacities[i] = w
		// Accumulate LinkTotal with the same fused expression and edge
		// order as sumCost; the per-term breakdown fields are summed
		// separately and agree only to rounding.
		ev.LinkTotal += p.K0 + p.K1*l + p.K2*l*w
		ev.ExistenceCost += p.K0
		ev.LengthCost += p.K1 * l
		ev.BandwidthCost += p.K2 * l * w
	}
	ev.CoreCount = len(g.CoreNodes())
	ev.NodeCost = p.K3 * float64(ev.CoreCount)
	ev.Total = finiteOrInf(ev.LinkTotal + ev.NodeCost)
}

// routeAndLoad runs Dijkstra from every source and accumulates the traffic
// load each link must carry under shortest-path routing into e.dj.load
// (symmetric, both triangles). Each unordered PoP pair {s,d} contributes
// its demand once, as in the paper's Σ_r t_r L_r formulation. Returns false
// if g is disconnected.
//
// When rt is non-nil, each source's distance and parent arrays are also
// copied into it, so one sweep serves both cost accumulation and routing
// extraction. In that mode all n sources are visited even when the graph
// turns out disconnected, so the routing stays usable within each
// component, whereas with rt == nil the sweep aborts on the first
// unreachable source. With rt == nil the last source is not routed at
// all: each pair's demand is pushed from its lower-indexed endpoint, so
// source n−1 has nothing to push, and source 0 has already decided
// connectivity.
func (e *Evaluator) routeAndLoad(g *graph.Graph, rt *Routing) bool {
	e.counters.fullSweeps.Inc()
	n := e.n
	e.fillCSR(g)
	load := e.dj.load
	for i := range load {
		load[i] = 0
	}
	sources := n
	if rt == nil {
		sources = n - 1
	}
	connected := true
	for s := 0; s < sources; s++ {
		reached := e.dijkstra(s)
		if rt != nil {
			rt.PathDist[s] = append([]float64(nil), e.dj.dist[:n]...)
			rt.Parent[s] = append([]int32(nil), e.dj.parent[:n]...)
		}
		if reached != n {
			if rt == nil {
				return false
			}
			connected = false
			continue
		}
		if !connected {
			continue // loads are meaningless; still filling routing tables
		}
		e.pushLoads(s, e.dj.parent, e.dj.order[:reached])
	}
	return connected
}

// pushLoads adds source s's demand contribution to e.dj.load by pushing
// demands down the source's shortest-path tree from the leaves: Dijkstra
// finalizes nodes in increasing distance order, so walking the finalization
// order backwards visits every node after all of its tree descendants. Each
// unordered pair {s,d} is accounted once, at its lower-indexed endpoint.
//
// order must be exactly the finalized prefix of a Dijkstra run — order[:count]
// with count the kernel's return value — and every caller must have verified
// count == n first (loads over a partial tree are meaningless): the kernel
// leaves stale entries past count in its scratch after it stops early on a
// disconnected graph, and pushLoads trusts the slice bound it is handed
// (TestScratchPoisoning proves nothing reads past it).
//
// The accumulator is seeded from the flattened demand matrix with one
// bulk copy + clear instead of a branch-per-node loop; the backward tree
// walk itself is inherently sequential (each node's total feeds its
// parent's) and indexes flat slices only.
func (e *Evaluator) pushLoads(s int, parent, order []int32) {
	n := e.n
	load, acc := e.dj.load, e.dj.acc
	copy(acc[s+1:n], e.dflat[s*n+s+1:(s+1)*n])
	clear(acc[:s+1])
	for k := len(order) - 1; k >= 1; k-- {
		v := int(order[k])
		if acc[v] == 0 {
			continue
		}
		pv := int(parent[v])
		load[v*n+pv] += acc[v]
		load[pv*n+v] += acc[v]
		acc[pv] += acc[v]
	}
}
