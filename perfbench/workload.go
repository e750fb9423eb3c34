package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/stats"
)

// shape is one GA configuration: n PoPs, population M and generations T.
type shape struct{ n, pop, gens int }

// sizes fixes every input of the workloads and layer probes. benchSizes is
// what the benchmark runs; the tests run tinySizes so that a whole
// invocation takes seconds.
type sizes struct {
	paper, large, service shape
	ensembleCount         int           // members per paper-ensemble call
	serviceCount          int           // members per coldd request
	hotSet                int           // configs pre-seeded into coldd's cache
	hitShare              float64       // share of service requests for the hot set
	setups                int           // set-ups per run; setup_s is their median
	warmupGens            int           // generations of the large-n warm-up call
	warmupDigest          string        // pinned JSONL digest of the paper-ensemble warm-up; "" skips the check
	small, big            shape         // the fixed-size evaluator rows, n30 and n128
	replicas              int           // single replicas timed by the cold probe
	deltaEdits            int           // CostDelta calls timed by the delta probe
	storeArtifacts        int           // artifacts written by the store probe
	probeService          time.Duration // coldd probe length in a library workload's traced run
	telemetryPairs        int           // plain/telemetry ensemble pairs timed by the telemetry probe
	serveFor              time.Duration // least length of a timeServe series
}

var benchSizes = sizes{
	paper:          shape{n: 30, pop: 100, gens: 100},
	large:          shape{n: 128, pop: 50, gens: 30},
	service:        shape{n: 20, pop: 30, gens: 30},
	ensembleCount:  8,
	serviceCount:   8,
	hotSet:         8,
	hitShare:       0.8,
	setups:         5,
	warmupGens:     2,
	warmupDigest:   "1e8c93f26fbe618d533e962d12d2fc1a29cd09fa8f25bbb476d37c1500554ca5",
	small:          shape{n: 30, pop: 100, gens: 100},
	big:            shape{n: 128, pop: 50, gens: 30},
	replicas:       4,
	deltaEdits:     200,
	storeArtifacts: 64,
	probeService:   3 * time.Second,
	telemetryPairs: 3,
	serveFor:       100 * time.Millisecond,
}

// warmupCount is the size of the paper-ensemble warm-up ensemble. It is
// fixed rather than nproc so its pinned digest holds on every machine.
const warmupCount = 2

// Seed streams keep the inputs of different purposes apart: every input
// is derived from the workload seed, a stream and an index.
const (
	streamOps    = iota + 1 // library workload operations
	streamHot               // the coldd hot set
	streamFresh             // fresh coldd configs
	streamClient            // the coldd clients' request choices
	streamProbe             // layer probe inputs
)

// opSeed derives the seed of item k of a stream from the workload seed.
func opSeed(seed int64, stream, k int) int64 {
	return int64(stats.StreamSeed(uint64(seed), uint64(stream), uint64(k)) >> 1)
}

// outcome is what one workload run measured. Timings come only from
// operations whose outputs passed every check.
type outcome struct {
	attempted, failed int
	networks          int           // networks delivered by passing operations
	wall              time.Duration // the measured window
	setup             []time.Duration
	first             []time.Duration // asking for networks → holding the first one
	gen               []time.Duration // one generating operation
	serve             []time.Duration // handing over one finished network or artifact
	rssKB             int64           // peak RSS of the process doing the work
	artifact          []byte          // one real artifact (JSONL) for the store probe
	svc               *svcFigures     // coldd-side figures of a service run
}

func (o *outcome) rate() float64 { return ratio(float64(o.networks), o.wall.Seconds()) }

// endToEndMetrics are what a user of a workload sees. Every workload
// reports all of them; README.md defines each one per workload.
var endToEndMetrics = []struct {
	name, unit string
	value      func(o *outcome) float64
}{
	{"setup_s", "s", func(o *outcome) float64 { return median(o.setup).Seconds() }},
	{"networks_per_s", "1/s", (*outcome).rate},
	{"first_network_s", "s", func(o *outcome) float64 { return median(o.first).Seconds() }},
	{"gen_p50_ms", "ms", func(o *outcome) float64 { return ms(quantile(o.gen, 0.5)) }},
	{"serve_p50_ms", "ms", func(o *outcome) float64 { return ms(quantile(o.serve, 0.5)) }},
	{"peak_rss_mb", "MB", func(o *outcome) float64 { return float64(o.rssKB) / 1024 }},
}

func endToEnd(o *outcome) map[string]metric {
	m := make(map[string]metric, len(endToEndMetrics))
	for _, e := range endToEndMetrics {
		m[e.name] = metric{Value: e.value(o), Unit: e.unit}
	}
	return m
}

// printEndToEnd prints every end-to-end metric, then the sample bases and
// the 90th percentiles. The percentiles are not bounded metrics: a library
// run has fewer than ten generating calls beyond its p90, and across ten
// seeds they spread by a quarter.
func printEndToEnd(w io.Writer, rep *report, o *outcome) {
	for _, e := range endToEndMetrics {
		fmt.Fprintf(w, "%-16s %14.6g %s\n", e.name, rep.Metrics[e.name].Value, e.unit)
	}
	fmt.Fprintf(w, "gen_p90_ms %.6g, serve_p90_ms %.6g\n", ms(quantile(o.gen, 0.9)), ms(quantile(o.serve, 0.9)))
	fmt.Fprintf(w, "samples: setup %d, first %d, gen %d, serve %d, networks %d in %.2fs; failed_frac %g (%d of %d attempted)\n",
		len(o.setup), len(o.first), len(o.gen), len(o.serve), o.networks, o.wall.Seconds(),
		ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
}

// call is one generating library call and what it produced.
type call struct {
	gen, first time.Duration
	serve      []time.Duration // the call's sample, from timeServe
	lines      [][]byte        // compact JSON of each network, in order
	head       *cold.Network   // the first network, until timeServe has run
	digest     string          // SHA-256 of the JSONL the lines make
	err        error
}

// tally checks every call's networks after the measured window, so the
// checks cost the window nothing, and adds the calls to o. A network that
// fails its checks or was never produced counts as failed, and a call with
// any failure contributes no timings.
func (o *outcome) tally(calls []call, want, n int) {
	for _, c := range calls {
		o.attempted += want
		bad := 0
		if c.err != nil || len(c.lines) != want {
			bad = want
		} else {
			for _, line := range c.lines {
				if verifyNetwork(line, n) != nil {
					bad++
				}
			}
		}
		if bad > 0 {
			o.failed += bad
			continue
		}
		o.networks += want
		o.gen = append(o.gen, c.gen)
		o.first = append(o.first, c.first)
		o.serve = append(o.serve, c.serve...)
		if o.artifact == nil {
			o.artifact = jsonl(c.lines)
		}
	}
}

func (b *bench) config(s shape, seed int64) cold.Config {
	return cold.Config{NumPoPs: s.n, Seed: seed, Parallelism: b.workers,
		Optimizer: cold.OptimizerSpec{PopulationSize: s.pop, Generations: s.gens}}
}

// paperEnsemble is the size the paper and the service run: n = 30 with
// default Params and M = T = 100, ensembles of 8 fanned out over nproc
// replica workers. Replica fan-out, the memo cache and full sweeps do the
// work; the linear kernel is selected and the delta path never runs.
func paperEnsemble(b *bench, _ int, dur time.Duration) (*outcome, error) {
	o := &outcome{}
	for i := 0; i < b.sz.setups; i++ {
		start := time.Now()
		c := b.ensembleCall(b.config(b.sz.paper, defaultSeed), warmupCount)
		o.setup = append(o.setup, time.Since(start))
		if c.err != nil {
			return nil, fmt.Errorf("warm-up ensemble: %w", c.err)
		}
		if want := b.sz.warmupDigest; want != "" && c.digest != want {
			fmt.Fprintf(os.Stderr, "perfbench: warm-up ensemble digest %s, pinned %s\n", c.digest, want)
			o.attempted += warmupCount
			o.failed += warmupCount
		}
	}
	var calls []call
	var serving time.Duration
	start := time.Now()
	for k := 0; k == 0 || time.Since(start)-serving < dur; k++ {
		c := b.ensembleCall(b.config(b.sz.paper, opSeed(b.seed, streamOps, k)), b.sz.ensembleCount)
		serving += b.timeServe(&c)
		calls = append(calls, c)
	}
	o.wall = time.Since(start) - serving
	o.rssKB = selfPeakRSS()
	o.tally(calls, b.sz.ensembleCount, b.sz.paper.n)
	return o, nil
}

// largeN runs single Generate calls at n = 128 with M = 50, T = 30 and
// nproc GA workers: the GA's inner breed/evaluate fan-out, the heap kernel
// and the delta/multi-base path (n >= DefaultDeltaThreshold) do the work.
// The ensemble engine and the store are bypassed.
func largeN(b *bench, _ int, dur time.Duration) (*outcome, error) {
	o := &outcome{}
	warm := b.sz.large
	warm.gens = b.sz.warmupGens
	for i := 0; i < b.sz.setups; i++ {
		start := time.Now()
		c := b.generate(b.config(warm, defaultSeed))
		o.setup = append(o.setup, time.Since(start))
		if c.err != nil {
			return nil, fmt.Errorf("warm-up Generate: %w", c.err)
		}
	}
	var calls []call
	var serving time.Duration
	start := time.Now()
	for k := 0; k == 0 || time.Since(start)-serving < dur; k++ {
		c := b.generate(b.config(b.sz.large, opSeed(b.seed, streamOps, k)))
		serving += b.timeServe(&c)
		calls = append(calls, c)
	}
	o.wall = time.Since(start) - serving
	o.rssKB = selfPeakRSS()
	o.tally(calls, 1, b.sz.large.n)
	return o, nil
}

// ensembleCall runs one GenerateEnsembleStream call. Each member is
// exported as it is emitted; the first is kept for timeServe.
func (b *bench) ensembleCall(cfg cold.Config, count int) call {
	var c call
	h := sha256.New()
	id, end := b.tr.begin("cold.GenerateEnsembleStream", 0)
	start := time.Now()
	c.err = cold.GenerateEnsembleStream(context.Background(), cfg, count, func(i int, nw *cold.Network) error {
		if i == 0 {
			c.first = time.Since(start)
			c.head = nw
		}
		return b.export(&c, h, nw, id)
	})
	c.gen = time.Since(start)
	end()
	c.digest = hex.EncodeToString(h.Sum(nil))
	return c
}

// generate runs one Generate call and exports its network. The call's
// time is both its gen and its first-network sample.
func (b *bench) generate(cfg cold.Config) call {
	var c call
	id, end := b.tr.begin("cold.Generate", 0)
	start := time.Now()
	nw, err := cold.Generate(cfg)
	c.gen = time.Since(start)
	end()
	c.first = c.gen
	if err != nil {
		c.err = err
		return c
	}
	c.head = nw
	c.err = b.export(&c, sha256.New(), nw, id)
	return c
}

// serveExports and sizes.serveFor bound the series of exports timeServe
// makes of a call's first network: at least this many, for at least that
// long, and the fastest export is the call's serve sample. Repeated exports of one network take one of two times, the slower up to
// 1.7 times the faster, in bursts of milliseconds: a GC cycle runs beside
// an export (one n = 128 export allocates about a megabyte), GA workers
// share the CPUs with an export made inside the stream, and a shared
// 2-CPU host has noisy neighbours. Any median or mean of such exports
// follows the share of slow ones, and serve_p50_ms spread by 0.15 to 0.35
// of its median across seeds; the fastest of 25 n = 30 exports, 9 ms of
// them, still missed the fast time in half the networks.
const serveExports = 25

// timeServe times handing over a finished network of c: compact JSON plus
// SHA-256, the work a consumer of the stream does per network. It runs
// after the call, on a collected heap, and every export must equal the
// line the call produced. It returns the time it took, which the caller
// leaves out of the measured window.
func (b *bench) timeServe(c *call) time.Duration {
	begin := time.Now()
	defer func() { c.head = nil }()
	if c.err != nil || c.head == nil {
		return 0
	}
	runtime.GC()
	series := time.Now()
	fastest := time.Duration(math.MaxInt64)
	for k := 0; k < serveExports || time.Since(series) < b.sz.serveFor; k++ {
		start := time.Now()
		line, err := json.Marshal(c.head)
		if err != nil {
			c.err = err
			break
		}
		h := sha256.New()
		h.Write(line)
		h.Write(newline)
		fastest = min(fastest, time.Since(start))
		if !bytes.Equal(line, c.lines[0]) {
			c.err = errors.New("a repeated export differs from the streamed one")
			break
		}
	}
	c.serve = []time.Duration{fastest}
	return time.Since(begin)
}

// export encodes one network as the compact JSON line coldd stores and
// adds the line to the call's running SHA-256, as a consumer keeping
// content-addressed networks does.
func (b *bench) export(c *call, h hash.Hash, nw *cold.Network, parent int) error {
	_, end := b.tr.begin("cold.Network.MarshalJSON", parent)
	line, err := json.Marshal(nw)
	end()
	if err != nil {
		return err
	}
	_, end = b.tr.begin("sha256.Write", parent)
	h.Write(line)
	h.Write(newline)
	end()
	c.lines = append(c.lines, line)
	return nil
}
