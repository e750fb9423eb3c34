package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/core"
	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/metrics"
	"github.com/networksynth/cold/internal/store"
	"github.com/networksynth/cold/internal/traffic"
)

// layerMetrics are the per-layer metrics of a traced run, each with the
// end-to-end metric and workload it should move.
var layerMetrics = []struct{ name, unit, moves string }{
	{"cold.replica_ms", "ms", "networks_per_s on paper-ensemble"},
	{"cold.parallel_eff", "ratio", "networks_per_s on paper-ensemble; gen_p50_ms on large-n"},
	{"cold.export_us", "us", "gen_p50_ms on service-mix"},
	{"cold.config_hash_us", "us", "serve_p50_ms on service-mix"},
	{"core.run_ms", "ms", "gen_p50_ms on large-n; networks_per_s on paper-ensemble"},
	{"core.gen_ms", "ms", "gen_p50_ms on large-n; networks_per_s on paper-ensemble"},
	{"core.breed_share", "ratio", "gen_p50_ms on large-n; networks_per_s on paper-ensemble"},
	{"core.evals", "count", "gen_p50_ms on large-n; networks_per_s on paper-ensemble"},
	{"cost.new_evaluator_us", "us", "setup_s and networks_per_s on paper-ensemble"},
	{"cost.memo_hit_ratio", "ratio", "networks_per_s on paper-ensemble"},
	{"cost.memo_hit_ns", "ns", "networks_per_s on paper-ensemble"},
	{"cost.sweep_us.n30", "us", "networks_per_s on paper-ensemble"},
	{"cost.sweep_us.n128", "us", "gen_p50_ms on large-n"},
	{"cost.sweep_linear_us.n30", "us", "networks_per_s on paper-ensemble"},
	{"cost.sweep_heap_us.n30", "us", "networks_per_s on paper-ensemble"},
	{"cost.delta_us.n128", "us", "gen_p50_ms on large-n"},
	{"cost.full_sweeps", "count", "gen_p50_ms on large-n"},
	{"cost.delta_evals", "count", "gen_p50_ms on large-n"},
	{"cost.delta_fallbacks", "count", "gen_p50_ms on large-n"},
	{"cost.evaluate_us", "us", "networks_per_s on paper-ensemble"},
	{"metrics.summarize_us", "us", "networks_per_s on paper-ensemble"},
	{"store.get_us", "us", "serve_p50_ms on service-mix"},
	{"store.put_us", "us", "gen_p50_ms on service-mix"},
	{"store.put_partial_us", "us", "gen_p50_ms on service-mix"},
	{"store.open_ms", "ms", "setup_s on service-mix"},
	{"coldd.hit_ratio", "ratio", "networks_per_s on service-mix"},
	{"coldd.queue_wait_ms", "ms", "gen_p50_ms and the printed gen_p90_ms on service-mix"},
	{"coldd.jobs_per_miss", "ratio", "gen_p50_ms on service-mix"},
	{"coldd.rejected", "count", "failed/attempted on service-mix"},
	{"telemetry.overhead_frac", "ratio", "networks_per_s on paper-ensemble"},
	{"bench.trace_overhead_frac", "ratio", "nothing: the benchmark's own tracing cost"},
}

// layers times each layer's public functions on the workload's own data
// and returns every per-layer metric, plus how many probe outputs failed
// their checks.
func (b *bench) layers(plain, traced *outcome) (map[string]float64, int, error) {
	m := map[string]float64{"bench.trace_overhead_frac": ratio(plain.rate(), traced.rate()) - 1}
	b.note("bench.trace_overhead_frac: %d networks plain, %d traced", plain.networks, traced.networks)

	// The workload's own GA: paper replicas and coldd jobs run it serially
	// inside replica workers, large-n fans it out over nproc.
	own, par := b.sz.paper, 1
	switch b.workload {
	case "large-n":
		own, par = b.sz.large, b.workers
	case "service-mix":
		own = b.sz.service
	}
	failed, err := b.coldLayer(m, own)
	if err != nil {
		return nil, 0, err
	}
	runs := map[shape]*gaRun{}
	if err := b.coreLayer(m, runs, own, par); err != nil {
		return nil, 0, err
	}
	if err := b.sweepRows(m, runs); err != nil {
		return nil, 0, err
	}
	if err := b.storeLayer(m, plain.artifact); err != nil {
		return nil, 0, err
	}
	figs := traced.svc
	if figs == nil {
		probe, err := serviceMix(b, 2, b.sz.probeService)
		if err != nil {
			return nil, 0, err
		}
		failed += probe.failed
		figs = probe.svc
		b.note("coldd.*: from a %v service-mix probe", b.sz.probeService)
	}
	m["coldd.hit_ratio"] = ratio(float64(figs.hits), float64(figs.hits+figs.misses))
	m["coldd.queue_wait_ms"] = figs.queueWaitMs
	m["coldd.jobs_per_miss"] = figs.jobsPerMiss
	m["coldd.rejected"] = float64(figs.rejected)
	b.note("coldd.hit_ratio: %d hits, %d misses; coldd.jobs_per_miss: over %d misses", figs.hits, figs.misses, figs.misses)
	if err := b.telemetryLayer(m); err != nil {
		return nil, 0, err
	}
	return m, failed, nil
}

// sample times reps calls of fn, one span each, and returns the durations.
func (b *bench) sample(name string, reps int, fn func(i int) error) ([]time.Duration, error) {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		_, end := b.tr.begin(name, 0)
		start := time.Now()
		err := fn(i)
		ds = append(ds, time.Since(start))
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return ds, nil
}

// perCallNs times batches of calls too short to time one by one and
// returns the median nanoseconds per call; each batch is one span.
func (b *bench) perCallNs(name string, batches, calls int, fn func(i int)) float64 {
	per := make([]float64, 0, batches)
	for i := 0; i < batches; i++ {
		_, end := b.tr.begin(name+" x"+strconv.Itoa(calls), 0)
		start := time.Now()
		for j := 0; j < calls; j++ {
			fn(j)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(calls))
		end()
	}
	return medianFloat(per)
}

// coldLayer times the ensemble engine, export and canonical hashing on the
// workload's config. For the ensemble workloads a replica is one member
// generated alone (GenerateEnsembleStreamFrom at Parallelism 1), and the
// efficiency compares those replicas with the same members generated by
// nproc workers. large-n bypasses the engine, so there a replica is one
// serial Generate and the efficiency compares it with Generate at nproc.
// It returns how many exported networks failed their checks.
func (b *bench) coldLayer(m map[string]float64, s shape) (int, error) {
	ctx := context.Background()
	var single []time.Duration
	var nets []*cold.Network
	var wall time.Duration
	if b.workload == "large-n" {
		for i := 0; i < b.sz.replicas; i++ {
			cfg := b.config(s, opSeed(b.seed, streamProbe, i))
			for _, par := range []int{1, b.workers} {
				cfg.Parallelism = par
				_, end := b.tr.begin("cold.Generate@"+strconv.Itoa(par), 0)
				start := time.Now()
				nw, err := cold.Generate(cfg)
				d := time.Since(start)
				end()
				if err != nil {
					return 0, err
				}
				if par == 1 {
					single, nets = append(single, d), append(nets, nw)
				} else {
					wall += d
				}
			}
		}
		wall *= time.Duration(b.workers)
	} else {
		cfg := b.config(s, opSeed(b.seed, streamProbe, 0))
		cfg.Parallelism = 1
		var err error
		single, err = b.sample("cold.GenerateEnsembleStreamFrom", b.sz.replicas, func(i int) error {
			return cold.GenerateEnsembleStreamFrom(ctx, cfg, i+1, i, func(_ int, nw *cold.Network) error {
				nets = append(nets, nw)
				return nil
			})
		})
		if err != nil {
			return 0, err
		}
		cfg.Parallelism = b.workers
		all, err := b.sample("cold.GenerateEnsembleStream", 1, func(int) error {
			return cold.GenerateEnsembleStream(ctx, cfg, b.sz.replicas, func(int, *cold.Network) error { return nil })
		})
		if err != nil {
			return 0, err
		}
		wall = all[0] * time.Duration(min(b.workers, b.sz.replicas))
	}
	m["cold.replica_ms"] = ms(median(single))
	m["cold.parallel_eff"] = ratio(sum(single).Seconds(), wall.Seconds())
	b.note("cold.replica_ms, cold.parallel_eff: %d replicas at n=%d, %d workers", len(single), s.n, b.workers)

	const reps = 10
	exports, err := b.sample("cold.Network.MarshalJSON", reps*len(nets), func(i int) error {
		_, err := json.Marshal(nets[i/reps])
		return err
	})
	if err != nil {
		return 0, err
	}
	failed := 0
	for _, nw := range nets {
		line, err := json.Marshal(nw)
		if err != nil || verifyNetwork(line, s.n) != nil {
			failed++
		}
	}
	m["cold.export_us"] = us(median(exports))
	cfg := b.config(s, opSeed(b.seed, streamProbe, 0))
	m["cold.config_hash_us"] = b.perCallNs("cold.Config.Hash", 5, 200, func(int) { cfg.Hash() }) / 1e3 //nolint:errcheck // the config is valid
	return failed, nil
}

// gaRun is one GA run on a prebuilt evaluator, kept so that the evaluator
// rows time the GA's real final population.
type gaRun struct {
	dist            [][]float64
	tm              *traffic.Matrix
	ev              *cost.Evaluator
	res             *core.Result
	wall            time.Duration
	gaps            []time.Duration // between consecutive Observer callbacks
	breedNs, evalNs int64
}

// newContext samples a context the way the library does by default:
// PoPs uniform on the unit square, exponential populations, gravity
// traffic at the calibrated scale.
func newContext(n int, seed int64) ([][]float64, *traffic.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	pts := geom.Uniform{Region: geom.UnitSquare()}.Sample(n, rng)
	pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(n, rng)
	return geom.DistanceMatrix(pts), traffic.Gravity(pops, traffic.DefaultGravityScale)
}

// runGA runs core.RunContext on a fresh evaluator with the settings the
// library derives for s (elite and mutation shares scaled with M).
func (b *bench) runGA(s shape, par int, seed int64) (*gaRun, error) {
	g := &gaRun{}
	g.dist, g.tm = newContext(s.n, seed)
	ev, err := cost.NewEvaluator(g.dist, g.tm, costParams())
	if err != nil {
		return nil, err
	}
	g.ev = ev
	st := core.DefaultSettings()
	st.PopulationSize, st.Generations = s.pop, s.gens
	st.NumSaved = max(1, s.pop/10)
	st.NumMutation = s.pop * 3 / 10
	st.Parallelism = par
	var last time.Time
	st.Observer = func(gs core.GenStats) {
		now := time.Now()
		if gs.Gen > 0 {
			g.gaps = append(g.gaps, now.Sub(last))
		}
		last = now
		g.breedNs += gs.BreedNs
		g.evalNs += gs.EvalNs
	}
	_, end := b.tr.begin(fmt.Sprintf("core.RunContext n=%d", s.n), 0)
	start := time.Now()
	g.res, err = core.RunContext(context.Background(), ev, st, uint64(seed))
	g.wall = time.Since(start)
	end()
	return g, err
}

// coreLayer runs the workload's GA on a prebuilt evaluator and times the
// evaluator and metrics calls on its final population and best graph.
func (b *bench) coreLayer(m map[string]float64, runs map[shape]*gaRun, s shape, par int) error {
	seed := opSeed(b.seed, streamProbe, 100)
	dist, tm := newContext(s.n, seed)
	builds, err := b.sample("cost.NewEvaluator", 20, func(int) error {
		_, err := cost.NewEvaluator(dist, tm, costParams())
		return err
	})
	if err != nil {
		return err
	}
	m["cost.new_evaluator_us"] = us(median(builds))
	g, err := b.runGA(s, par, seed)
	if err != nil {
		return err
	}
	if (s == b.sz.small && par == 1) || (s == b.sz.big && par == b.workers) {
		runs[s] = g
	}
	m["core.run_ms"] = ms(g.wall)
	m["core.gen_ms"] = ms(median(g.gaps))
	m["core.breed_share"] = ratio(float64(g.breedNs), float64(g.breedNs+g.evalNs))
	m["core.evals"] = float64(g.res.Evaluations)
	st := g.ev.Stats()
	lookups := st.CacheHits + st.CacheMisses
	m["cost.memo_hit_ratio"] = ratio(float64(st.CacheHits), float64(lookups))
	b.note("core.*, cost.memo_hit_ratio: one GA run at n=%d M=%d T=%d, %d workers; %d memo lookups",
		s.n, s.pop, s.gens, par, lookups)
	pop := g.res.Population
	m["cost.memo_hit_ns"] = b.perCallNs("cost.Evaluator.Cost memo hit", 5, 20*len(pop), func(i int) { g.ev.Cost(pop[i%len(pop)]) })
	evals, err := b.sample("cost.Evaluator.Evaluate", 20, func(int) error {
		if !g.ev.Evaluate(g.res.Best).Connected {
			return errors.New("best graph is disconnected")
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["cost.evaluate_us"] = us(median(evals))
	sums, err := b.sample("metrics.Summarize", len(pop), func(i int) error {
		metrics.Summarize(pop[i])
		return nil
	})
	if err != nil {
		return err
	}
	m["metrics.summarize_us"] = us(median(sums))
	return nil
}

// sweepRows times full sweeps (CostUncached) over the final populations of
// the fixed-size GA runs, per kernel at n30, and CostDelta at n128. They
// are the deletion-evidence rows: linear against heap, and the delta path
// against the full sweep it replaces.
func (b *bench) sweepRows(m map[string]float64, runs map[shape]*gaRun) error {
	get := func(s shape, par, k int) (*gaRun, error) {
		if g, ok := runs[s]; ok {
			return g, nil
		}
		g, err := b.runGA(s, par, opSeed(b.seed, streamProbe, 200+k))
		runs[s] = g
		return g, err
	}
	small, err := get(b.sz.small, 1, 0)
	if err != nil {
		return err
	}
	big, err := get(b.sz.big, b.workers, 1)
	if err != nil {
		return err
	}
	for _, row := range []struct {
		name string
		run  *gaRun
		opts cost.Options
	}{
		{"cost.sweep_us.n30", small, cost.Options{}},
		{"cost.sweep_linear_us.n30", small, cost.Options{Heap: cost.ForceOff}},
		{"cost.sweep_heap_us.n30", small, cost.Options{Heap: cost.ForceOn}},
		{"cost.sweep_us.n128", big, cost.Options{}},
	} {
		ev, err := cost.NewEvaluatorOptions(row.run.dist, row.run.tm, costParams(), row.opts)
		if err != nil {
			return err
		}
		pop := row.run.res.Population
		ds, err := b.sample(row.name, 3*len(pop), func(i int) error {
			ev.CostUncached(pop[i%len(pop)])
			return nil
		})
		if err != nil {
			return err
		}
		m[row.name] = us(median(ds))
	}
	b.note("cost.sweep_*: CostUncached over the final population, 3 rounds")
	st := big.ev.Stats()
	m["cost.full_sweeps"] = float64(st.FullSweeps)
	m["cost.delta_evals"] = float64(st.DeltaEvals)
	m["cost.delta_fallbacks"] = float64(st.Fallbacks.Total())
	b.note("cost.full_sweeps, cost.delta_evals, cost.delta_fallbacks: Evaluator.Stats of one GA run at n=%d M=%d T=%d (%d evaluations)",
		b.sz.big.n, b.sz.big.pop, b.sz.big.gens, big.res.Evaluations)
	return b.deltaProbe(m, big)
}

// deltaProbe times CostDelta on one- and two-link toggles of the n128
// GA's best graph, memoization off so that every call evaluates.
func (b *bench) deltaProbe(m map[string]float64, run *gaRun) error {
	ev, err := cost.NewEvaluator(run.dist, run.tm, costParams())
	if err != nil {
		return err
	}
	ev.SetCacheLimit(0)
	base := run.res.Best
	n := base.N()
	rng := rand.New(rand.NewSource(opSeed(b.seed, streamProbe, 300)))
	type edit struct {
		g       *graph.Graph
		changed []graph.Edge
	}
	edits := make([]edit, b.sz.deltaEdits+1)
	for k := range edits {
		e := edit{g: base.Clone()}
		for t := 0; t < 1+rng.Intn(2); t++ {
			i := rng.Intn(n)
			j := (i + 1 + rng.Intn(n-1)) % n
			e.g.SetEdge(i, j, !e.g.HasEdge(i, j))
			e.changed = append(e.changed, graph.Edge{I: min(i, j), J: max(i, j)})
		}
		edits[k] = e
	}
	ev.CostDelta(base, edits[0].g, edits[0].changed) // primes the base with one full sweep
	before := ev.Stats()
	ds, err := b.sample("cost.Evaluator.CostDelta", b.sz.deltaEdits, func(i int) error {
		ev.CostDelta(base, edits[i+1].g, edits[i+1].changed)
		return nil
	})
	if err != nil {
		return err
	}
	after := ev.Stats()
	m["cost.delta_us.n128"] = us(median(ds))
	b.note("cost.delta_us.n128: %d CostDelta calls, %d incremental, %d fell back to a full sweep",
		len(ds), after.DeltaEvals-before.DeltaEvals, after.Fallbacks.Total()-before.Fallbacks.Total())
	return nil
}

// storeLayer times internal/store on the workload's real artifact bytes in
// a fresh directory holding storeArtifacts copies under distinct keys.
func (b *bench) storeLayer(m map[string]float64, artifact []byte) error {
	if len(artifact) == 0 {
		return errors.New("store probe: the workload produced no artifact")
	}
	dir := filepath.Join(b.runDir, "store-probe")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	lines := bytes.Count(artifact, newline)
	key := func(k int) string { return fmt.Sprintf("%064x-c%d-a1", k, lines) }
	k := b.sz.storeArtifacts
	puts, err := b.sample("store.Put", k, func(i int) error { return st.Put(key(i), artifact) })
	if err != nil {
		return err
	}
	gets, err := b.sample("store.Get", 3*k, func(i int) error {
		data, err := st.Get(key(i % k))
		if err == nil && !bytes.Equal(data, artifact) {
			err = errors.New("returned different bytes")
		}
		return err
	})
	if err != nil {
		return err
	}
	half := max(1, lines/2)
	cut := 0
	for i := 0; i < half; i++ {
		cut += bytes.IndexByte(artifact[cut:], '\n') + 1
	}
	partials, err := b.sample("store.PutPartial", k, func(i int) error {
		return st.PutPartial(key(k+i), half, artifact[:cut])
	})
	if err != nil {
		return err
	}
	opens, err := b.sample("store.Open + index load", 5, func(int) error {
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			return err
		}
		if ok, err := s.Has(key(0)); err != nil || !ok {
			return fmt.Errorf("reopened store lost an artifact (%v)", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["store.put_us"] = us(median(puts))
	m["store.get_us"] = us(median(gets))
	m["store.put_partial_us"] = us(median(partials))
	m["store.open_ms"] = ms(median(opens))
	b.note("store.*: %d artifacts of %d bytes (%d networks); store.open_ms indexes %d entries",
		k, len(artifact), lines, 2*k)
	return nil
}

// telemetryLayer measures what attaching cold.NewTelemetry().TraceTo(
// io.Discard) costs a paper-ensemble call: plain and telemetry calls on
// the same inputs alternate, the order flipping every pair.
func (b *bench) telemetryLayer(m map[string]float64) error {
	cfg := b.config(b.sz.paper, opSeed(b.seed, streamProbe, 400))
	count := 2 * b.workers
	var plain, with []time.Duration
	for p := 0; p < b.sz.telemetryPairs; p++ {
		for i := 0; i < 2; i++ {
			on := (p+i)%2 == 1
			c, name := cfg, "cold.GenerateEnsembleStream"
			if on {
				c.Telemetry = cold.NewTelemetry().TraceTo(io.Discard)
				name += " +telemetry"
			}
			_, end := b.tr.begin(name, 0)
			start := time.Now()
			err := cold.GenerateEnsembleStream(context.Background(), c, count, func(int, *cold.Network) error { return nil })
			d := time.Since(start)
			end()
			if err != nil {
				return err
			}
			if on {
				with = append(with, d)
			} else {
				plain = append(plain, d)
			}
		}
	}
	m["telemetry.overhead_frac"] = ratio(float64(median(with)), float64(median(plain))) - 1
	b.note("telemetry.overhead_frac: %d pairs of %d-member paper ensembles", b.sz.telemetryPairs, count)
	return nil
}
