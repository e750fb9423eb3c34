// Package cold synthesizes PoP-level data-network topologies using
// Combined Optimization and Layered Design (COLD), reproducing Bowden,
// Roughan and Bean, "COLD: PoP-level Network Topology Synthesis",
// CoNEXT 2014.
//
// COLD balances randomness and design: the *context* — PoP locations drawn
// from a 2D point process and a gravity-model traffic matrix — is random,
// while the network built for each context is designed deterministically,
// by heuristically minimizing a four-parameter cost
//
//	Σ_links (k0 + k1·length + k2·length·capacity) + k3·(#non-leaf PoPs)
//
// subject to carrying all traffic under shortest-path routing. The
// parameters are costs, so they are operationally meaningful and tunable:
// raising k2 (bandwidth cost) yields meshier networks, raising k3 (hub
// complexity cost) yields hub-and-spoke networks, and so on.
//
// Basic use:
//
//	net, err := cold.Generate(cold.Config{NumPoPs: 30, Seed: 1})
//	if err != nil { ... }
//	fmt.Println(net.Stats())
//
// Every generated Network carries the details simulations need: PoP
// coordinates, link lengths and capacities, shortest-path routing and the
// traffic matrix it was designed for.
package cold

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/networksynth/cold/internal/core"
	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/heuristics"
	"github.com/networksynth/cold/internal/metrics"
	"github.com/networksynth/cold/internal/par"
	"github.com/networksynth/cold/internal/stats"
	"github.com/networksynth/cold/internal/traffic"
)

// Params are the four cost coefficients of the COLD objective. Costs are
// relative; the paper fixes K1 = 1 and tunes the rest.
type Params struct {
	K0 float64 // link existence cost
	K1 float64 // cost per unit link length
	K2 float64 // cost per unit length per unit bandwidth
	K3 float64 // complexity cost per non-leaf ("core") PoP
}

// DefaultParams mirrors the paper's baseline: k0=10, k1=1, with a
// mid-range bandwidth cost and no hub cost.
func DefaultParams() Params { return Params{K0: 10, K1: 1, K2: 1e-4, K3: 0} }

// LocationKind selects the PoP location model.
type LocationKind int

// Location models. Uniform on the unit square is the paper's default; the
// alternatives exist because §7 evaluates context sensitivity.
const (
	LocUniform   LocationKind = iota // i.i.d. uniform on a rectangle
	LocClustered                     // bursty Thomas cluster process
	LocGrid                          // jittered lattice (debugging aid)
	LocFixed                         // caller-provided coordinates
)

// Point is a PoP location in the plane.
type Point struct {
	X, Y float64
}

// LocationSpec configures PoP placement.
type LocationSpec struct {
	Kind LocationKind

	// Aspect is the region's width/height ratio at unit area (LocUniform
	// and LocClustered). Zero means 1 (the unit square).
	Aspect float64

	// Clusters and Sigma configure LocClustered: the number of cluster
	// centers and the Gaussian spread of PoPs around them. Zeros mean 5
	// clusters with sigma 0.05.
	Clusters int
	Sigma    float64

	// Points are the coordinates for LocFixed (must supply >= NumPoPs).
	Points []Point
}

// TrafficKind selects the population model feeding the gravity traffic
// matrix.
type TrafficKind int

// Traffic population models. Exponential (mean 30) is the paper's default;
// Pareto provides the heavy-tailed alternative of §7.
const (
	TrafficExponential TrafficKind = iota
	TrafficPareto
	TrafficUniform // every PoP has the same population (tests/debugging)
	TrafficFixed   // caller-provided populations (e.g. real city data)
)

// TrafficSpec configures the traffic matrix.
type TrafficSpec struct {
	Kind TrafficKind

	// MeanPopulation is the mean PoP population. Zero means 30.
	MeanPopulation float64

	// ParetoShape is the Pareto tail exponent (TrafficPareto only; must
	// exceed 1). Zero means 1.5.
	ParetoShape float64

	// Scale multiplies every gravity demand. Zero means the calibrated
	// default (traffic.DefaultGravityScale = 10), which places the
	// tree→mesh transition in the paper's k2 range.
	Scale float64

	// Populations are the per-PoP populations for TrafficFixed (must
	// supply >= NumPoPs positive values).
	Populations []float64
}

// OptimizerSpec configures the genetic algorithm.
type OptimizerSpec struct {
	// PopulationSize (M) and Generations (T). Zeros mean the paper's 100
	// and 100.
	PopulationSize int
	Generations    int

	// SeedWithHeuristics runs the greedy heuristics first and seeds the
	// GA's initial population with their outputs (the paper's
	// "initialised GA", recommended: it guarantees the result is at least
	// as good as every heuristic).
	SeedWithHeuristics bool

	// TrackHistory records the best cost after each generation in
	// Network.History.
	TrackHistory bool
}

// Config describes one synthesis run.
type Config struct {
	// NumPoPs is the number of PoPs (n). Required, >= 2.
	NumPoPs int

	// Params are the cost coefficients. The zero value means
	// DefaultParams.
	Params Params

	// Seed drives all randomness; equal (Config, Seed) pairs generate
	// identical networks.
	Seed int64

	// Parallelism is the number of worker goroutines. Zero means
	// runtime.GOMAXPROCS(0); 1 forces fully serial execution. Ensemble
	// generation fans whole replicas out across workers; single-network
	// runs (Generate, GenerateVariants) parallelize the GA's fitness
	// evaluation instead. Outputs are bit-identical for every setting —
	// parallelism changes wall-clock time, never results.
	Parallelism int

	// Telemetry, when non-nil, collects metrics and (optionally) a JSONL
	// event trace from the run; see NewTelemetry. Generated networks are
	// bit-identical with and without it.
	Telemetry *Telemetry

	// RunID, when non-empty, is stamped into the run's JSONL trace events
	// (the run_start/run_end "run_id" field, trace schema v2) so external
	// logs can join a run to the trace it produced — cmd/coldd sets it to
	// the job's request ID. Execution-only like Parallelism and Telemetry:
	// excluded from Canonical()/Hash() and without effect on results.
	RunID string

	Locations LocationSpec
	Traffic   TrafficSpec
	Optimizer OptimizerSpec
}

// Link is one PoP-level link of a generated network, with everything a
// simulator needs.
type Link struct {
	A, B     int     // endpoint PoP indices, A < B
	Length   float64 // physical length (Euclidean)
	Capacity float64 // bandwidth required under shortest-path routing
}

// Stats are the headline topology statistics of a network (the quantities
// tracked in §6–§7 of the paper).
type Stats struct {
	NumPoPs       int
	NumLinks      int
	AverageDegree float64
	DegreeCV      float64 // coefficient of variation of node degree (CVND)
	Diameter      int     // hops
	Clustering    float64 // global clustering coefficient
	Hubs          int     // PoPs with degree > 1
	Leaves        int     // PoPs with degree 1
	AvgPathLen    float64 // mean hops over all pairs
}

// CostBreakdown decomposes the network's objective value.
type CostBreakdown struct {
	Total     float64
	Existence float64 // Σ k0
	Length    float64 // Σ k1·ℓ
	Bandwidth float64 // Σ k2·ℓ·w
	Node      float64 // k3·hubs
}

// Network is one synthesized PoP-level network.
type Network struct {
	// Points are the PoP locations.
	Points []Point
	// Populations are the gravity-model PoP populations.
	Populations []float64
	// Demand is the symmetric traffic matrix the network was designed to
	// carry.
	Demand [][]float64
	// Links are the designed links with lengths and capacities.
	Links []Link
	// Cost is the objective value breakdown.
	Cost CostBreakdown
	// History holds the best cost per GA generation when
	// OptimizerSpec.TrackHistory was set.
	History []float64

	routing *cost.Routing
	adj     [][]bool
	stats   Stats
}

// N returns the number of PoPs.
func (nw *Network) N() int { return len(nw.Points) }

// HasLink reports whether PoPs i and j are directly linked.
func (nw *Network) HasLink(i, j int) bool { return nw.adj[i][j] }

// Path returns the PoP sequence of the shortest (by physical length) route
// from s to d, inclusive: [s] when s == d, and nil when no route exists.
// Generated networks are connected by construction, so every pair has a
// route; a network decoded by UnmarshalJSON carries no routing tables, so
// Path reports no route between two different PoPs.
func (nw *Network) Path(s, d int) []int {
	if nw.routing == nil && s != d {
		return nil
	}
	return nw.routing.Path(s, d)
}

// Stats returns the network's topology statistics.
func (nw *Network) Stats() Stats { return nw.stats }

// Generate synthesizes one network for a fresh random context.
func Generate(cfg Config) (*Network, error) {
	return GenerateContext(context.Background(), cfg)
}

// GenerateContext is Generate with cancellation: the GA checks ctx before
// every generation, and on cancellation the run stops and returns
// ctx.Err(). The result is independent of ctx — an uncancelled
// GenerateContext matches Generate.
func GenerateContext(ctx context.Context, cfg Config) (*Network, error) {
	nc, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	return generate(ctx, nc, cfg.Telemetry.replica(nil, 0, 0))
}

// generate synthesizes one network from a normal-form config inside an
// optional replica telemetry scope (rt is nil when telemetry is off).
func generate(ctx context.Context, cfg Config, rt *replicaTracker) (*Network, error) {
	sc, err := buildContext(cfg)
	if err != nil {
		rt.end(nil, nil, err)
		return nil, err
	}
	rt.attach(sc.eval)
	nw, err := optimize(ctx, sc, rt)
	rt.end(nw, sc.eval, err)
	return nw, err
}

// GenerateEnsemble synthesizes count networks with independent contexts
// derived from cfg.Seed. The networks are "similar but varied" in the
// paper's sense: same design parameters, different contexts. Members are
// generated by cfg.Parallelism workers; the result is identical for every
// parallelism setting.
func GenerateEnsemble(cfg Config, count int) ([]*Network, error) {
	return GenerateEnsembleContext(context.Background(), cfg, count)
}

// GenerateEnsembleContext is GenerateEnsemble with cancellation. Ensemble
// members are fanned out across cfg.Parallelism worker goroutines, each
// member seeded deterministically from cfg.Seed and its replica index, and
// results are returned in replica order — so the output is bit-identical
// to a serial run with the same Config. On cancellation it stops promptly
// and returns ctx.Err().
func GenerateEnsembleContext(ctx context.Context, cfg Config, count int) ([]*Network, error) {
	if count < 0 {
		return nil, fmt.Errorf("cold: negative ensemble size %d", count)
	}
	nets := make([]*Network, count)
	if err := GenerateEnsembleStream(ctx, cfg, count, func(i int, nw *Network) error {
		nets[i] = nw
		return nil
	}); err != nil {
		return nil, err
	}
	return nets, nil
}

// GenerateEnsembleStream is GenerateEnsembleContext for consumers that
// want members as they become available instead of one final slice. emit
// is called exactly once per completed member, in replica order (0, 1, …,
// count-1): calls are serialized (never concurrent), may come from a
// goroutine other than the caller's, and stop once GenerateEnsembleStream
// returns, so emit doubles as a progress report. Workers complete
// replicas out of order, so an emission can lag its completion while
// earlier replicas finish — but the emitted sequence is bit-identical to
// the slice GenerateEnsembleContext returns for the same Config: streaming
// changes delivery, never results. Emitted members are released by the
// engine as they are handed over, so peak memory is bounded by the
// reorder window rather than by count. If a member fails, every member
// before it is still emitted and the lowest failing member's error is
// returned as "cold: ensemble member i: …". If emit returns an error, the
// run is canceled and that error is returned verbatim (not wrapped).
func GenerateEnsembleStream(ctx context.Context, cfg Config, count int, emit func(i int, nw *Network) error) error {
	return GenerateEnsembleStreamFrom(ctx, cfg, count, 0, emit)
}

// GenerateEnsembleStreamFrom resumes a streaming ensemble run at replica
// start: it generates and emits members start, start+1, …, count-1 with
// the same contract as GenerateEnsembleStream. Because each member's seed
// is derived by hashing (cfg.Seed, replica index) — never from preceding
// replicas — the emitted suffix is bit-identical to the tail of a
// from-zero run of the same Config: a consumer that already holds members
// 0..start-1 (say, from a checkpoint of an interrupted run) ends up with
// exactly the ensemble an uninterrupted run would have produced. start
// must lie in [0, count]; start == count is a valid no-op. The config is
// validated and normalized once, before any replica starts.
func GenerateEnsembleStreamFrom(ctx context.Context, cfg Config, count, start int, emit func(i int, nw *Network) error) error {
	if count < 0 {
		return fmt.Errorf("cold: negative ensemble size %d", count)
	}
	if start < 0 || start > count {
		return fmt.Errorf("cold: resume index %d outside [0, %d]", start, count)
	}
	if count == 0 || start == count {
		return nil
	}
	cfg, err := cfg.normalize()
	if err != nil {
		return err
	}
	remaining := count - start
	workers := min(cfg.Parallelism, remaining)
	run := cfg.Telemetry.startRun(remaining, workers, cfg)
	defer run.end()

	// Replica indices are claimed through par.Each, the caller's goroutine
	// being worker 0; each worker runs whole replicas. Per-replica seeding
	// makes members independent of which worker (or order) computed them.
	// slots[i] holds member i's outcome until every earlier member has been
	// emitted, so emissions — and the first member error — come out in
	// replica order: the pool is cancelled only when the flush meets a
	// failure, once every lower member has been emitted, and no claim
	// above the lowest failure seen so far starts.
	type outcome struct {
		nw  *Network
		err error
	}
	pool, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu     sync.Mutex
		runErr error // the first member or emit error in replica order
	)
	failed := count // lowest replica index known to have failed
	next := start   // lowest replica index not yet emitted
	slots := make([]outcome, count)
	par.Each(workers, remaining, func(w, k int) {
		i := start + k
		mu.Lock()
		skip := i > failed
		mu.Unlock()
		if skip || pool.Err() != nil {
			return // aborted: the remaining claims drain without work
		}
		nw, err := generateReplica(pool, cfg, run, i, w)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failed = min(failed, i)
		}
		slots[i] = outcome{nw, err}
		// Flush the in-order prefix. Emit runs under mu, which is what
		// serializes emissions; a slow emit backpressures the workers.
		for runErr == nil && next < count && (slots[next].nw != nil || slots[next].err != nil) {
			if o := slots[next]; o.err != nil {
				runErr = fmt.Errorf("cold: ensemble member %d: %w", next, o.err)
			} else {
				runErr = emit(next, o.nw)
			}
			slots[next] = outcome{}
			next++
		}
		if runErr != nil {
			cancel()
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	return runErr
}

// replicaTag domain-separates replica-seed derivation from every other
// consumer of stats.StreamSeed (the GA derives per-offspring streams from
// the same base seed).
const replicaTag = 0xC01DC01D

// replicaSeed derives the seed of ensemble member i by hashing (seed, i)
// through stats.StreamSeed. The previous additive derivation
// (seed + i*K) made streams collide across ensembles whose base seeds
// differ by a multiple of K — replicaSeed(s, i+d) == replicaSeed(s+d*K, i)
// — so two "independent" ensembles could share member networks. Hashing
// has no such additive relation, and the seed depends only on i, so
// outputs never depend on Parallelism.
func replicaSeed(seed int64, i int) int64 {
	return int64(stats.StreamSeed(uint64(seed), replicaTag, uint64(i)))
}

// generateReplica synthesizes ensemble member i from the run's normal-form
// config. Replicas run serially inside one worker (inner GA parallelism
// off): with many members in flight the replica level already saturates
// the workers, and nested fan-out would only oversubscribe the scheduler.
func generateReplica(ctx context.Context, cfg Config, run *runTracker, i, worker int) (*Network, error) {
	c := cfg
	c.Seed = replicaSeed(cfg.Seed, i)
	c.Parallelism = 1
	return generate(ctx, c, cfg.Telemetry.replica(run, i, worker))
}

// GenerateVariants synthesizes up to count *distinct* topologies for a
// single context: one GA run's final population, deduplicated and taken in
// ascending cost order, each fully evaluated. This exposes the GA property
// the paper highlights (§3.3): one run yields a whole population of good
// designs, "potentially providing additional support for simulation where
// one wants a fixed context, but multiple topologies." The first variant
// equals Generate's result. Fewer than count networks are returned when
// the final population holds fewer distinct topologies.
func GenerateVariants(cfg Config, count int) ([]*Network, error) {
	return GenerateVariantsContext(context.Background(), cfg, count)
}

// GenerateVariantsContext is GenerateVariants with cancellation, with the
// same contract as GenerateContext.
func GenerateVariantsContext(ctx context.Context, cfg Config, count int) ([]*Network, error) {
	if count < 1 {
		return nil, fmt.Errorf("cold: variant count %d must be >= 1", count)
	}
	nc, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	// One GA run, so one replica-0 scope, as in GenerateContext.
	rt := cfg.Telemetry.replica(nil, 0, 0)
	sc, err := buildContext(nc)
	if err != nil {
		rt.end(nil, nil, err)
		return nil, err
	}
	rt.attach(sc.eval)
	nets, err := variants(ctx, sc, rt, count)
	if err != nil {
		rt.end(nil, sc.eval, err)
		return nil, err
	}
	rt.end(nets[0], sc.eval, nil)
	return nets, nil
}

// variants runs the GA on a built context and materializes up to count
// distinct members of its final population, best first.
func variants(ctx context.Context, sc *synthContext, rt *replicaTracker, count int) ([]*Network, error) {
	res, err := runOptimizer(ctx, sc, rt)
	if err != nil {
		return nil, err
	}
	var nets []*Network
	for _, g := range res.Population {
		if len(nets) == count {
			break
		}
		dup := false
		for _, prev := range nets {
			if sameLinks(prev, g.Edges()) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		nw, err := materialize(sc, g, res.History)
		if err != nil {
			return nil, err
		}
		nets = append(nets, nw)
	}
	return nets, nil
}

func sameLinks(nw *Network, edges []graph.Edge) bool {
	if len(nw.Links) != len(edges) {
		return false
	}
	for i, e := range edges {
		if nw.Links[i].A != e.I || nw.Links[i].B != e.J {
			return false
		}
	}
	return true
}

// synthContext bundles one run's normal-form config and the context
// sampled from it.
type synthContext struct {
	cfg    Config
	points []geom.Point
	pops   []float64
	tm     *traffic.Matrix
	eval   *cost.Evaluator
}

// buildContext samples the context of a normal-form config (normalize):
// every Generate* entry point normalizes first, so all of them return the
// same typed, errors.Is-able validation errors (ErrInvalidConfig,
// *FieldError), and a config generates exactly what its hash describes.
func buildContext(cfg Config) (*synthContext, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pts, err := samplePoints(cfg.Locations, cfg.NumPoPs, rng)
	if err != nil {
		return nil, err
	}
	pops := samplePopulations(cfg.Traffic, cfg.NumPoPs, rng)
	tm := traffic.Gravity(pops, cfg.Traffic.Scale)
	p := cfg.Params
	eval, err := cost.NewEvaluator(geom.DistanceMatrix(pts), tm, cost.Params{K0: p.K0, K1: p.K1, K2: p.K2, K3: p.K3})
	if err != nil {
		return nil, err
	}
	return &synthContext{cfg: cfg, points: pts, pops: pops, tm: tm, eval: eval}, nil
}

// samplePoints draws n PoP locations for a normal-form spec.
func samplePoints(spec LocationSpec, n int, rng *rand.Rand) ([]geom.Point, error) {
	if spec.Kind == LocFixed {
		pts := make([]geom.Point, n)
		for i, p := range spec.Points {
			pts[i] = geom.Point{X: p.X, Y: p.Y}
		}
		return pts, nil
	}
	region, err := geom.NewRect(spec.Aspect)
	if err != nil {
		return nil, fmt.Errorf("cold: %w", err)
	}
	switch spec.Kind {
	case LocClustered:
		return geom.ThomasCluster{Region: region, Clusters: spec.Clusters, Sigma: spec.Sigma}.Sample(n, rng), nil
	case LocGrid:
		return geom.Grid{Region: region, Jitter: 0.3}.Sample(n, rng), nil
	default:
		return geom.Uniform{Region: region}.Sample(n, rng), nil
	}
}

// samplePopulations draws n PoP populations for a normal-form spec.
func samplePopulations(spec TrafficSpec, n int, rng *rand.Rand) []float64 {
	switch spec.Kind {
	case TrafficPareto:
		return traffic.Pareto{Shape: spec.ParetoShape, Mean: spec.MeanPopulation}.Sample(n, rng)
	case TrafficUniform:
		return traffic.Uniform{Value: spec.MeanPopulation}.Sample(n, rng)
	case TrafficFixed:
		return spec.Populations
	default:
		return traffic.Exponential{Mean: spec.MeanPopulation}.Sample(n, rng)
	}
}

func optimize(ctx context.Context, sc *synthContext, rt *replicaTracker) (*Network, error) {
	res, err := runOptimizer(ctx, sc, rt)
	if err != nil {
		return nil, err
	}
	return materialize(sc, res.Best, res.History)
}

// gaTag domain-separates the GA run seed from replica-seed derivation.
const gaTag = 0x6A5EED

// runOptimizer executes the GA for a built context, parallelizing both
// offspring construction and fitness evaluation across the config's
// Parallelism workers. rt, when non-nil, observes the GA's per-generation
// statistics. A context whose every initial topology costs +Inf is
// rejected with ErrInvalidConfig.
func runOptimizer(ctx context.Context, sc *synthContext, rt *replicaTracker) (*core.Result, error) {
	cfg := sc.cfg
	settings := core.SizedSettings(cfg.Optimizer.PopulationSize, cfg.Optimizer.Generations)
	settings.TrackHistory = cfg.Optimizer.TrackHistory
	settings.Parallelism = cfg.Parallelism
	settings.Observer = rt.observer()

	// Separate rng stream for the heuristic seeds so context and search
	// randomness do not interleave; the GA itself derives per-offspring
	// streams internally from its run seed.
	if cfg.Optimizer.SeedWithHeuristics {
		optRNG := rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D))
		hs := heuristics.All(ctx, sc.eval, optRNG)
		settings.Seeds = heuristics.Graphs(hs)
	}
	res, err := core.RunContext(ctx, sc.eval, settings, stats.StreamSeed(uint64(cfg.Seed), gaTag))
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("cold: optimizer: %w", err)
	}
	if math.IsInf(res.BestCost, 1) {
		// Validate cannot see this: the sampled context and parameters
		// are each in range, but every cost sum overflows.
		return nil, fmt.Errorf("cold: %w: no topology in the initial population has a finite cost", ErrInvalidConfig)
	}
	return res, nil
}

// materialize turns one optimized topology into a fully evaluated Network.
func materialize(sc *synthContext, g *graph.Graph, history []float64) (*Network, error) {
	ev := sc.eval.Evaluate(g)
	if !ev.Connected {
		return nil, fmt.Errorf("cold: internal error: optimizer returned a disconnected network")
	}
	n := sc.eval.N()
	st := metrics.Summarize(g)
	nw := &Network{
		Points:      make([]Point, n),
		Populations: append([]float64(nil), sc.pops...),
		Demand:      sc.tm.Demand,
		History:     history,
		routing:     ev.Routing,
		stats: Stats{
			NumPoPs:       st.N,
			NumLinks:      st.Edges,
			AverageDegree: st.AverageDegree,
			DegreeCV:      st.DegreeCV,
			Diameter:      st.Diameter,
			Clustering:    st.Clustering,
			Hubs:          st.Hubs,
			Leaves:        st.Leaves,
			AvgPathLen:    st.AvgPathLen,
		},
	}
	for i, p := range sc.points {
		nw.Points[i] = Point{X: p.X, Y: p.Y}
	}
	nw.Links = make([]Link, len(ev.Edges))
	for i, e := range ev.Edges {
		nw.Links[i] = Link{A: e.I, B: e.J, Length: ev.Lengths[i], Capacity: ev.Capacities[i]}
	}
	nw.Cost = CostBreakdown{
		Total:     ev.Total,
		Existence: ev.ExistenceCost,
		Length:    ev.LengthCost,
		Bandwidth: ev.BandwidthCost,
		Node:      ev.NodeCost,
	}
	nw.adj = make([][]bool, n)
	for i := range nw.adj {
		nw.adj[i] = make([]bool, n)
	}
	for _, l := range nw.Links {
		nw.adj[l.A][l.B] = true
		nw.adj[l.B][l.A] = true
	}
	return nw, nil
}
