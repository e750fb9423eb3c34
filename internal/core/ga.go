// Package core implements COLD's genetic algorithm (§3.3 and §4 of the
// paper), the heuristic search that picks a near-optimal topology for a
// given context (PoP locations + traffic matrix) under the four-parameter
// cost model.
//
// Candidate topologies ("chromosomes") are adjacency matrices. Each
// generation keeps the best topologies unchanged (elitism), breeds new ones
// by per-link crossover between tournament-selected parents, and mutates
// others by adding/removing a geometric number of links or by collapsing a
// non-leaf node into a leaf. Offspring that come out disconnected are
// repaired by joining components with a distance-minimal spanning set of
// links (§4.1.3), so every evaluated candidate can carry the traffic.
//
// All randomness is counter-based: every offspring slot of every generation
// owns a SplitMix64 stream seeded from (run seed, generation, slot), so both
// breeding and fitness evaluation fan out across Settings.Parallelism
// goroutines while staying bit-identical to a serial run.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/par"
	"github.com/networksynth/cold/internal/stats"
)

// GenStats reports one generation's population statistics to an observer.
// Generation 0 is the initial population (BreedNs then covers its
// construction). All statistics are derived from the sorted population
// after evaluation; computing them consumes no randomness, so attaching an
// observer cannot change the run's results.
type GenStats struct {
	Gen   int
	Best  float64
	Mean  float64
	Worst float64

	// Diversity is the mean edge-set distance (graph.DiffCount) from the
	// generation's best member to every other member.
	Diversity float64

	// EliteSurvived counts members of the previous generation's elite
	// (pointer identity) still inside the current elite; 0 for generation 0.
	EliteSurvived int

	BreedNs int64 // offspring construction time (population init for gen 0)
	EvalNs  int64 // fitness evaluation time

	// Evals is the cumulative number of cost-function calls so far,
	// including memoized hits.
	Evals uint64
}

// The GA's operators are fixed at the paper's values (§4.1).
const (
	// Tournament parent selection: pick tournamentB candidates uniformly,
	// keep the best tournamentA as parents.
	tournamentA = 2
	tournamentB = 10

	// linkMutationGeomP is the geometric parameter for the number of links
	// added and removed by a link mutation, giving on average two link
	// changes per mutation.
	linkMutationGeomP = 0.5

	// nodeMutationProb is the probability a mutation is a node mutation
	// (collapse a random non-leaf into a leaf) rather than a link
	// mutation.
	nodeMutationProb = 0.5
)

// Settings control the genetic algorithm. The zero value is not runnable;
// use DefaultSettings (the paper's T = M = 100). The tournament and
// mutation operators are not settings: they are fixed at the paper's
// values.
type Settings struct {
	PopulationSize int // M: topologies per generation
	Generations    int // T

	// Next-generation composition. They must sum to at most
	// PopulationSize; any remainder is filled with crossover offspring.
	NumSaved    int // elite topologies copied unchanged
	NumMutation int // mutated topologies

	// Seeds are extra starting topologies, typically heuristic outputs
	// (the paper's "initialised GA"). They join the MST and the clique in
	// the first generation.
	Seeds []*graph.Graph

	// TrackHistory records the best cost after every generation in
	// Result.History (used for convergence tests and plots).
	TrackHistory bool

	// Observer, when non-nil, is called synchronously on the GA goroutine
	// after every generation is evaluated and sorted, with that
	// generation's statistics. The per-generation statistics (diversity,
	// elite survival) are only computed when an observer is attached, and
	// none of them consume randomness: results are bit-identical with and
	// without an observer. The callback must not mutate the population.
	Observer func(GenStats)

	// Parallelism is the number of goroutines used per generation (0 or 1
	// means serial). Both stages of the GA hot loop fan out across the
	// worker pool: offspring construction — crossover, mutation and the
	// whole initial population, where each slot's randomness comes from
	// its own (seed, generation, slot) stream — and fitness evaluation, where
	// each worker uses its own cost.Evaluator clone sharing one
	// memoization cache. Streams make offspring independent of which
	// worker builds them, and costs land at their population index, so
	// results are bit-identical for every Parallelism value.
	Parallelism int
}

// DefaultSettings returns the paper's configuration: M = T = 100, 10%
// elite and 30% mutation.
func DefaultSettings() Settings { return SizedSettings(100, 100) }

// SizedSettings returns the settings for a population of pop over gens
// generations, keeping the paper's 10% elite (at least one) and 30%
// mutation split.
func SizedSettings(pop, gens int) Settings {
	return Settings{
		PopulationSize: pop,
		Generations:    gens,
		NumSaved:       max(1, pop/10),
		NumMutation:    pop * 3 / 10,
	}
}

// Validate reports whether the settings are internally consistent.
func (s Settings) Validate() error {
	if s.PopulationSize < 2 {
		return fmt.Errorf("core: population size %d < 2", s.PopulationSize)
	}
	if s.Generations < 1 {
		return fmt.Errorf("core: generations %d < 1", s.Generations)
	}
	if s.NumSaved < 1 {
		return fmt.Errorf("core: NumSaved %d < 1 (elitism required for monotone best cost)", s.NumSaved)
	}
	if s.NumSaved+s.NumMutation > s.PopulationSize {
		return fmt.Errorf("core: NumSaved + NumMutation = %d exceeds population %d",
			s.NumSaved+s.NumMutation, s.PopulationSize)
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("core: parallelism %d < 0", s.Parallelism)
	}
	return nil
}

// Result is the GA's output: the best topology found, plus the final
// population (the paper highlights that a GA run yields a whole population
// of good topologies for the same context, useful for simulation).
type Result struct {
	Best     *graph.Graph
	BestCost float64

	// Final generation, sorted by ascending cost (Population[0] == Best).
	// When no member of the initial population has a finite cost, the run
	// stops after generation 0 and BestCost is +Inf.
	Population []*graph.Graph
	Costs      []float64

	// History[g] is the best cost after generation g (only when
	// Settings.TrackHistory is set).
	History []float64

	// Evaluations counts cost-function calls (including memoized hits).
	Evaluations uint64
}

// Run executes the genetic algorithm for the context held by e. The seed
// drives all stochastic choices through counter-based per-offspring
// streams, making runs reproducible for every Parallelism setting.
func Run(e *cost.Evaluator, s Settings, seed uint64) (*Result, error) {
	return RunContext(context.Background(), e, s, seed)
}

// RunContext is Run with cancellation: the context is checked before every
// generation, and on cancellation the run stops and returns ctx.Err().
// Results are independent of ctx — an uncancelled RunContext matches Run.
func RunContext(ctx context.Context, e *cost.Evaluator, s Settings, seed uint64) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := e.N()
	if n < 1 {
		return nil, fmt.Errorf("core: context has no PoPs")
	}
	for i, seedGraph := range s.Seeds {
		if seedGraph.N() != n {
			return nil, fmt.Errorf("core: seed %d has %d nodes, context has %d", i, seedGraph.N(), n)
		}
	}

	ga := newRunner(e, s, seed)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	obs := newObserver(ga)
	breedSpan := obs.span()
	pop := ga.initialPopulation()
	breedNs := breedSpan.ElapsedNs()
	evalSpan := obs.span()
	costs := ga.evaluate(pop)
	sortByCost(pop, costs)
	obs.emit(0, pop, costs, breedNs, evalSpan.ElapsedNs())

	var history []float64
	if s.TrackHistory {
		history = append(history, costs[0])
	}
	gens := s.Generations
	if math.IsInf(costs[0], 1) {
		gens = 1 // no finite topology to select toward
	}

	next := make([]*graph.Graph, s.PopulationSize)
	for gen := 1; gen < gens; gen++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		breedSpan = obs.span()
		ga.breed(gen, pop, costs, next)
		pop, next = next, pop
		breedNs = breedSpan.ElapsedNs()
		evalSpan = obs.span()
		costs = ga.evaluate(pop)
		sortByCost(pop, costs)
		obs.emit(gen, pop, costs, breedNs, evalSpan.ElapsedNs())
		if s.TrackHistory {
			history = append(history, costs[0])
		}
	}

	return &Result{
		Best:        pop[0],
		BestCost:    costs[0],
		Population:  pop,
		Costs:       costs,
		History:     history,
		Evaluations: ga.evals,
	}, nil
}

type runner struct {
	e       *cost.Evaluator
	s       Settings
	n       int
	runSeed uint64
	evals   uint64

	// workers are per-goroutine evaluator clones for parallel fitness
	// evaluation (nil when Parallelism <= 1). workers[0] is e.
	workers []*cost.Evaluator

	// scratches[k] is the breeding scratch owned by fan-out goroutine k.
	scratches []*breedScratch

	// weights are the parent-selection weights (1/cost) of the current
	// generation and weightTotal their stats.WeightTotal, rebuilt by
	// prepBreeding and read-only during fan-out.
	weights     []float64
	weightTotal float64

	// job is the generation the current fan-out is building.
	job breedJob

	// costBufs are evaluate's two result buffers. Each call fills the one
	// the previous call did not return, so the costs breed reads while the
	// next generation is built stay intact until that generation is
	// evaluated.
	costBufs [2][]float64
}

// breedScratch holds the per-goroutine buffers offspring construction
// reuses: the partial Fisher–Yates pool for tournament draws, crossover's
// row of uniform draws and its per-row parent mask, the edge list and
// absent-pair pool for link mutation, the core-node, target and neighbor
// lists for node mutation, and the slot's rng stream. One scratch is never
// shared between goroutines.
type breedScratch struct {
	rng     stats.RNG
	idx     []int
	draws   []float64 // n−1: one row's draws
	mask    []uint64  // one bit per column: set = take the link from parent 0
	edges   []graph.Edge
	pairs   []int
	core    []int
	targets []int
	nbuf    []int
}

func newRunner(e *cost.Evaluator, s Settings, seed uint64) *runner {
	ga := &runner{e: e, s: s, n: e.N(), runSeed: seed}
	nw := max(s.Parallelism, 1)
	ga.scratches = make([]*breedScratch, nw)
	for i := range ga.scratches {
		ga.scratches[i] = &breedScratch{
			draws: make([]float64, max(ga.n-1, 0)),
			mask:  make([]uint64, (ga.n+63)/64),
		}
	}
	if s.Parallelism > 1 {
		ga.workers = make([]*cost.Evaluator, s.Parallelism)
		ga.workers[0] = e
		for i := 1; i < s.Parallelism; i++ {
			ga.workers[i] = e.Clone()
		}
	}
	return ga
}

// stream returns the rng owning offspring slot `slot` of generation `gen`:
// an independent SplitMix64 sequence seeded by hashing the coordinates with
// the run seed, so a slot's randomness never depends on breeding order or
// worker assignment. Generation 0 is the initial population.
func (ga *runner) stream(gen, slot int) stats.RNG {
	return stats.NewRNG(stats.StreamSeed(ga.runSeed, uint64(gen), uint64(slot)))
}

// forSlots runs body(ga, slot, scratch) for every slot in [lo, hi),
// spreading the slots over the worker pool when Parallelism > 1. Bodies
// must write only at their own slot and read shared state (ga.job,
// weights, distance matrix) immutably — per-slot streams then make the
// outcome identical for every worker count and every slot-to-worker
// assignment. body is a method expression, not a closure, so a serial
// fan-out allocates nothing.
func (ga *runner) forSlots(lo, hi int, body func(ga *runner, slot int, sc *breedScratch)) {
	count := hi - lo
	if nw := min(len(ga.scratches), count); nw > 1 {
		par.Each(nw, count, func(k, i int) { body(ga, lo+i, ga.scratches[k]) })
		return
	}
	sc := ga.scratches[0]
	for slot := lo; slot < hi; slot++ {
		body(ga, slot, sc)
	}
}

// initialMeanDegree sets the Erdős–Rényi p = initialMeanDegree/n of the
// random part of generation zero: an expected ~1.5 links per node, between
// tree and mesh, per the paper's guidance that p·C(n,2) should approximate
// the optimal link count.
const initialMeanDegree = 3.0

// initialPopulation builds generation zero per §4.1: slot 0 holds the
// distance MST, slot 1 the clique, the next slots any provided seeds, and
// Erdős–Rényi random graphs (repaired to be connected) fill the rest. The
// whole generation is constructed in one fan-out across the worker pool —
// the fixed members consume no randomness and each random slot draws from
// its own generation-0 stream, so the slot→member mapping (and with it the
// whole run) is identical for every Parallelism value.
func (ga *runner) initialPopulation() []*graph.Graph {
	pop := make([]*graph.Graph, ga.s.PopulationSize)
	ga.job = breedJob{next: pop}
	ga.forSlots(0, len(pop), (*runner).initSlot)
	return pop
}

// initSlot builds the generation-zero member at one slot of ga.job.next.
func (ga *runner) initSlot(slot int, _ *breedScratch) {
	n, pop := ga.n, ga.job.next
	switch {
	case slot == 0:
		pop[slot] = graph.MST(n, ga.e.Dist())
	case slot == 1:
		pop[slot] = graph.Complete(n)
	case slot < 2+len(ga.s.Seeds):
		pop[slot] = ga.s.Seeds[slot-2].Clone()
	default:
		p := min(initialMeanDegree/float64(n), 1)
		rng := ga.stream(0, slot)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					g.AddEdge(i, j)
				}
			}
		}
		g.Connect(ga.e.Dist())
		pop[slot] = g
	}
}

// prepBreeding rebuilds the shared parent-selection weights for a
// generation's costs, validated and summed once for all of the
// generation's mutation draws. Call before mutate when bypassing breed
// (tests).
func (ga *runner) prepBreeding(costs []float64) {
	ga.weights = ga.weights[:0]
	for _, c := range costs {
		ga.weights = append(ga.weights, inverseCostWeight(c))
	}
	uniformIfAllZero(ga.weights)
	ga.weightTotal = stats.WeightTotal(ga.weights)
}

// breed fills next (len PopulationSize) with generation gen: the NumSaved
// elite survive unchanged, the following NumMutation slots hold mutation
// offspring, and crossover offspring fill the remainder. Non-elite slots
// are constructed in parallel, each from its own (runSeed, gen, slot)
// stream.
//
// Each non-elite child is written into the graph next already holds at its
// slot, allocated only where that slot is still nil. RunContext passes the
// population from two generations back as next, sorted: its elite are
// shared with pop (the elite survived into it) and are overwritten here as
// pointers, but every member from NumSaved on was replaced in pop and
// nothing references it any more, so a generation reuses those graphs
// instead of allocating M − NumSaved new ones.
func (ga *runner) breed(gen int, pop []*graph.Graph, costs []float64, next []*graph.Graph) {
	ga.prepBreeding(costs)
	elite := min(ga.s.NumSaved, len(pop))
	copy(next[:elite], pop[:elite])
	ga.job = breedJob{gen: gen, pop: pop, costs: costs, next: next, mutEnd: elite + ga.s.NumMutation}
	ga.forSlots(elite, len(next), (*runner).breedSlot)
}

// breedJob is the generation a fan-out is building — breed's offspring, or
// generation zero (next only) for initialPopulation — shared read-only by
// the slot calls of the fan-out, each of which writes only next[slot].
type breedJob struct {
	gen       int
	pop, next []*graph.Graph
	costs     []float64
	mutEnd    int
}

// breedSlot builds the offspring at one non-elite slot of ga.job.
func (ga *runner) breedSlot(slot int, sc *breedScratch) {
	j := &ga.job
	child := j.next[slot]
	if child == nil {
		child = graph.New(ga.n)
		j.next[slot] = child
	}
	// The stream lives in the scratch: the stats helpers take it as an
	// interface, which would move a local copy to the heap every slot.
	sc.rng = ga.stream(j.gen, slot)
	if slot < j.mutEnd {
		ga.mutate(child, j.pop, &sc.rng, sc)
	} else {
		ga.crossover(child, j.pop, j.costs, &sc.rng, sc)
	}
}

// evaluate computes the cost of every member of pop. With workers it
// spreads the members over goroutines, each with its own evaluator clone;
// costs land at their population index, so the result is identical to the
// serial loop. The result is valid until the call after next.
func (ga *runner) evaluate(pop []*graph.Graph) []float64 {
	ga.costBufs[0], ga.costBufs[1] = ga.costBufs[1], ga.costBufs[0]
	if cap(ga.costBufs[0]) < len(pop) {
		ga.costBufs[0] = make([]float64, len(pop))
	}
	costs := ga.costBufs[0][:len(pop)]
	ga.evals += uint64(len(pop))
	if nw := min(len(ga.workers), len(pop)); nw > 1 {
		par.Each(nw, len(pop), func(k, i int) { costs[i] = ga.workers[k].Cost(pop[i]) })
		return costs
	}
	for i := range pop {
		costs[i] = ga.e.Cost(pop[i])
	}
	return costs
}

// crossover builds one offspring into child, overwriting it:
// tournament-pick b candidates, keep the best a = 2 as parents, then copy
// each potential link from a parent chosen with probability inversely
// proportional to its cost. child must not be a member of pop, and pop
// must have at least two members (Settings.Validate).
//
// It draws and builds exactly what a per-link stats.WeightedIndex over the
// two parents' weights does: b index draws for the tournament, then one
// Float64 per upper pair {i<j} in row-major order. The weights are
// validated and summed once per child, and for two weights that walk picks
// parent 0 exactly when float64(u·total) − w0 < 0. Otherwise, NaN
// included, it falls through to parent 1. The explicit conversion keeps
// the compiler from fusing the multiply and subtract into an FMA. Each
// row's choices become a mask word by word without a branch, and the row
// is assembled as (p0 & mask) | (p1 &^ mask); the lower triangle is then
// mirrored from the upper one.
func (ga *runner) crossover(child *graph.Graph, pop []*graph.Graph, costs []float64, rng *stats.RNG, sc *breedScratch) {
	// Draw b distinct candidate indices with a partial Fisher–Yates:
	// exactly b rng draws and no O(M) permutation allocation. pop is sorted
	// by cost, so "cheapest" is "lowest index".
	cand := sc.sampleIndices(len(pop), min(tournamentB, len(pop)), rng)
	parents := bestIndices(cand, tournamentA)
	p0, p1 := pop[parents[0]], pop[parents[1]]
	w := [2]float64{inverseCostWeight(costs[parents[0]]), inverseCostWeight(costs[parents[1]])}
	uniformIfAllZero(w[:])
	total, w0 := stats.WeightTotal(w[:]), w[0]

	n, mask := ga.n, sc.mask
	for i := 0; i < n-1; i++ {
		u := sc.draws[:n-1-i] // u[j-i-1] decides column j
		rng.Float64s(u)
		for k := (i + 1) / 64; k < len(mask); k++ {
			lo, hi := max(i+1, 64*k), min(n, 64*k+64)
			// Shift each choice in from the top, then move the run of
			// hi−lo bits down to start at column lo's bit.
			var m uint64
			for _, x := range u[lo-i-1 : hi-i-1] {
				var take0 uint64
				if float64(x*total)-w0 < 0 {
					take0 = 1
				}
				m = m>>1 | take0<<63
			}
			mask[k] = m >> (64 - uint(hi-lo) - uint(lo)%64)
		}
		child.BlendUpperRow(i, p0, p1, mask)
	}
	child.MirrorUpper()
	child.Connect(ga.e.Dist())
}

// mutate builds one offspring into child, overwriting it: a copy of a
// parent chosen with probability inversely proportional to cost (weights
// prepared by prepBreeding), changed by either a link mutation or a node
// mutation (§4.1.2). child must not be a member of pop.
func (ga *runner) mutate(child *graph.Graph, pop []*graph.Graph, rng *stats.RNG, sc *breedScratch) {
	pi := stats.PickWeighted(ga.weights, ga.weightTotal, rng.Float64())
	child.CopyFrom(pop[pi])
	if rng.Float64() < nodeMutationProb {
		ga.nodeMutation(child, rng, sc)
	} else {
		ga.linkMutation(child, rng, sc)
	}
	child.Connect(ga.e.Dist())
}

// linkMutation removes m+ existing links and adds m− absent links, both
// geometric(p) counts.
func (ga *runner) linkMutation(g *graph.Graph, rng *stats.RNG, sc *breedScratch) {
	removals := stats.Geometric(linkMutationGeomP, rng)
	additions := stats.Geometric(linkMutationGeomP, rng)
	edges := g.AppendEdges(sc.edges[:0])
	sc.edges = edges
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i := 0; i < removals && i < len(edges); i++ {
		g.RemoveEdge(edges[i].I, edges[i].J)
	}
	if additions == 0 {
		return
	}
	// Enumerate the absent pairs once and draw exactly min(additions,
	// |absent|) of them by partial Fisher–Yates. The old rejection loop
	// degenerated on near-complete graphs, where almost every drawn pair
	// already existed; this loop is deterministically bounded.
	n := g.N()
	pairs := sc.pairs[:0]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !g.HasEdge(i, j) {
				pairs = append(pairs, i*n+j)
			}
		}
	}
	sc.pairs = pairs
	additions = min(additions, len(pairs))
	for k := 0; k < additions; k++ {
		m := k + rng.Intn(len(pairs)-k)
		pairs[k], pairs[m] = pairs[m], pairs[k]
		g.AddEdge(pairs[k]/n, pairs[k]%n)
	}
}

// nodeMutation turns one uniformly chosen non-leaf node into a leaf whose
// single link runs to the closest remaining non-leaf node. Leaves that hung
// off the collapsed hub are re-attached to their own closest remaining
// non-leaf node — without this the repair step tends to re-attach them to
// the collapsed node, silently reconstituting the hub and trapping the GA
// in local minima at large k3.
func (ga *runner) nodeMutation(g *graph.Graph, rng *stats.RNG, sc *breedScratch) {
	core := g.AppendCoreNodes(sc.core[:0])
	sc.core = core
	if len(core) < 2 {
		return // nothing to collapse, or no other hub to attach to
	}
	v := core[rng.Intn(len(core))]
	targets := sc.targets[:0]
	for _, h := range core {
		if h != v {
			targets = append(targets, h)
		}
	}
	sc.targets = targets
	sc.nbuf = g.Neighbors(v, sc.nbuf[:0])
	for _, u := range sc.nbuf {
		g.RemoveEdge(v, u)
	}
	dist := ga.e.Dist()
	g.AddEdge(v, nearestTo(dist, v, targets))
	for _, u := range sc.nbuf {
		if g.Degree(u) == 0 {
			g.AddEdge(u, nearestTo(dist, u, targets))
		}
	}
}

// sampleIndices draws k distinct indices uniformly from [0, n) with a
// partial Fisher–Yates shuffle over the scratch pool: exactly k rng draws
// and no allocation once the pool is warm. The returned slice aliases the
// scratch and is valid until the next call on the same scratch.
func (sc *breedScratch) sampleIndices(n, k int, rng *stats.RNG) []int {
	if cap(sc.idx) < n {
		sc.idx = make([]int, n)
	}
	pool := sc.idx[:n]
	for i := range pool {
		pool[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:k]
}

// nearestTo returns the member of candidates closest to v (lowest index on
// ties). candidates must be non-empty and exclude v.
func nearestTo(dist [][]float64, v int, candidates []int) int {
	best, bestD := candidates[0], math.Inf(1)
	for _, h := range candidates {
		if d := dist[v][h]; d < bestD {
			best, bestD = h, d
		}
	}
	return best
}

// inverseCostWeight maps a cost to a selection weight 1/cost, treating
// non-positive or non-finite costs safely (infinite cost → zero weight; a
// zero cost would make the weight infinite, so it is capped).
func inverseCostWeight(c float64) float64 {
	if math.IsInf(c, 1) || math.IsNaN(c) {
		return 0
	}
	if c <= 0 {
		return 1e18
	}
	return 1 / c
}

// uniformIfAllZero sets every weight to 1 when all are zero — every
// candidate of the draw has infinite cost — so the draw falls back to a
// uniform pick instead of having nothing to be proportional to. Runs with
// any finite candidate keep their weights untouched.
func uniformIfAllZero(weights []float64) {
	for _, w := range weights {
		if w > 0 {
			return
		}
	}
	for i := range weights {
		weights[i] = 1
	}
}

// bestIndices returns the k smallest values of idxs (population indices;
// smaller index = cheaper because the population is sorted). It reorders
// idxs in place and returns its prefix.
func bestIndices(idxs []int, k int) []int {
	// Partial selection sort: k is tiny (a=2).
	for i := 0; i < k && i < len(idxs); i++ {
		min := i
		for j := i + 1; j < len(idxs); j++ {
			if idxs[j] < idxs[min] {
				min = j
			}
		}
		idxs[i], idxs[min] = idxs[min], idxs[i]
	}
	if k < len(idxs) {
		return idxs[:k]
	}
	return idxs
}

// sortByCost sorts pop and costs together, ascending cost, equal costs
// keeping their pre-sort relative order. The exact permutation — ties
// included — is load-bearing for determinism: tournament selection reads
// population indices ("lower index = cheaper") and crossover walks the
// 1/cost weights in sorted order, so any reordering feeds back into the
// run's randomness. That also rules out a partial top-k selection, which
// would leave the slots below the elite cut in a different order. The
// evaluator never returns NaN (a non-finite sum comes back as +Inf), so
// costs are totally ordered and every stable sort yields the same
// permutation.
func sortByCost(pop []*graph.Graph, costs []float64) {
	sort.Stable(byCost{pop, costs})
}

// byCost orders a population by its costs, swapping members and costs
// together.
type byCost struct {
	pop   []*graph.Graph
	costs []float64
}

func (b byCost) Len() int           { return len(b.costs) }
func (b byCost) Less(i, j int) bool { return b.costs[i] < b.costs[j] }
func (b byCost) Swap(i, j int) {
	b.pop[i], b.pop[j] = b.pop[j], b.pop[i]
	b.costs[i], b.costs[j] = b.costs[j], b.costs[i]
}
