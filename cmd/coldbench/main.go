// Command coldbench regenerates every table and figure of the COLD paper's
// evaluation. Each experiment prints the rows/series the paper reports.
//
// Usage:
//
//	coldbench [flags] <experiment>...
//	coldbench -trials 20 fig3 fig5
//	coldbench all
//
// Experiments: table1 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8a fig8b fig9
// brute context routers dijkstra csr extras ensemble breeding validate
// all.
// Figures 5–7 share one sweep, as do 8b and 9, so requesting several of
// them together reuses the runs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/diag"
	"github.com/networksynth/cold/internal/experiments"
	"github.com/networksynth/cold/internal/telemetry"
	"github.com/networksynth/cold/internal/zoo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coldbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("coldbench", flag.ContinueOnError)
	var o experiments.Options
	d := experiments.Defaults()
	fs.IntVar(&o.Trials, "trials", d.Trials, "trials per data point (paper: 20 for fig3, 200 for fig5-9)")
	fs.IntVar(&o.N, "n", d.N, "number of PoPs")
	fs.IntVar(&o.GAPop, "pop", d.GAPop, "GA population size M")
	fs.IntVar(&o.GAGens, "gens", d.GAGens, "GA generations T")
	fs.IntVar(&o.Bootstrap, "bootstrap", d.Bootstrap, "bootstrap resamples for CIs")
	fs.Int64Var(&o.Seed, "seed", d.Seed, "master seed")
	jsonOut := fs.String("json", "", "write machine-readable results to this file (e.g. BENCH_COLD.json; format in EXPERIMENTS.md)")
	validateCount := fs.Int("validate-count", 1000, "COLD ensemble size for the validate experiment")
	validateRecords := fs.String("validate-records", "", "write the validate experiment's per-topology JSONL records to this file (e.g. VALIDATE_COLD.jsonl)")
	trace := fs.String("trace", "", "write a JSONL telemetry trace to this file (see DESIGN.md, Observability; analyze with coldstats trace)")
	metricsAddr := fs.String("metrics", "", "serve Prometheus /metrics, expvar and pprof on this address (e.g. :6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		return fmt.Errorf("no experiment given; try: coldbench all (options: table1 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8a fig8b fig9 brute context routers dijkstra csr extras ensemble breeding validate)")
	}
	if len(names) == 1 && names[0] == "all" {
		names = []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig9", "brute", "context", "routers", "dijkstra", "csr", "extras", "ensemble", "breeding", "validate"}
	}

	// Telemetry instruments the experiments that run through the public
	// cold API (ensemble, breeding); it feeds the -json counters, the
	// -trace event log and the -metrics endpoint.
	var tel *cold.Telemetry
	if *jsonOut != "" || *trace != "" || *metricsAddr != "" {
		tel = cold.NewTelemetry()
	}
	var flushTrace func() error
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		tel.TraceTo(bw)
		flushTrace = func() error {
			if err := tel.TraceErr(); err != nil {
				f.Close() //nolint:errcheck
				return fmt.Errorf("trace: %w", err)
			}
			if err := bw.Flush(); err != nil {
				f.Close() //nolint:errcheck
				return fmt.Errorf("trace: %w", err)
			}
			return f.Close()
		}
		defer f.Close() //nolint:errcheck // no-op after flushTrace's close
	}
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		tel.RegisterMetrics(reg)
		diag.RegisterBuildInfo(reg)
		diag.RegisterRuntime(reg)
		addr, shutdown, err := diag.Serve(*metricsAddr, reg, func() any { return tel.Snapshot() })
		if err != nil {
			return err
		}
		defer shutdown() //nolint:errcheck
		fmt.Fprintf(os.Stderr, "coldbench: metrics on http://%s/metrics (expvar on /debug/vars, pprof on /debug/pprof/)\n", addr)
	}
	var records []benchRecord

	// Shared sweeps, computed at most once.
	var tun *experiments.TunabilityResult
	tunability := func() *experiments.TunabilityResult {
		if tun == nil {
			tun = experiments.TunabilitySweep(o)
		}
		return tun
	}
	var hub *experiments.HubbinessResult
	hubbiness := func() *experiments.HubbinessResult {
		if hub == nil {
			hub = experiments.HubbinessSweep(o)
		}
		return hub
	}

	for _, name := range names {
		start := time.Now()
		before := tel.Snapshot()
		var tables []*experiments.Table
		switch name {
		case "table1":
			tables = []*experiments.Table{experiments.Table1(o)}
		case "fig1":
			tables = []*experiments.Table{experiments.Fig1(o)}
		case "fig2":
			tables = []*experiments.Table{experiments.Fig2(o)}
		case "fig3":
			tables = []*experiments.Table{experiments.Fig3(0, o), experiments.Fig3(10, o)}
		case "fig4":
			tables = []*experiments.Table{experiments.Fig4(nil, o)}
		case "fig5":
			tables = []*experiments.Table{tunability().Fig5()}
		case "fig6":
			tables = []*experiments.Table{tunability().Fig6()}
		case "fig7":
			tables = []*experiments.Table{tunability().Fig7()}
		case "fig8a":
			cvs := zoo.CVNDs(zoo.DefaultEnsemble())
			tables = []*experiments.Table{experiments.Fig8a(cvs, o)}
		case "fig8b":
			tables = []*experiments.Table{hubbiness().Fig8b()}
		case "fig9":
			tables = []*experiments.Table{hubbiness().Fig9()}
		case "brute":
			tables = []*experiments.Table{experiments.Brute(o)}
		case "context":
			tables = []*experiments.Table{experiments.ContextSensitivity(o)}
		case "routers":
			tables = []*experiments.Table{experiments.RouterSpread(o)}
		case "dijkstra":
			tables = []*experiments.Table{experiments.DijkstraKernels(o)}
		case "csr":
			tables = []*experiments.Table{experiments.CSRHotPath(o)}
		case "extras":
			tables = []*experiments.Table{experiments.ExtraFeatures(0, o)}
		case "ensemble":
			t, err := ensembleThroughput(o, tel)
			if err != nil {
				return err
			}
			tables = []*experiments.Table{t}
		case "breeding":
			t, err := breedingThroughput(o, tel)
			if err != nil {
				return err
			}
			tables = []*experiments.Table{t}
		case "validate":
			var err error
			tables, err = runValidate(o, *validateCount, *validateRecords)
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		for _, t := range tables {
			if err := t.Print(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		elapsed := time.Since(start)
		fmt.Fprintf(stdout, "-- %s done in %.1fs --\n\n", name, elapsed.Seconds())
		if *jsonOut != "" {
			records = append(records, newBenchRecord(name, o, elapsed, before, tel.Snapshot()))
		}
	}
	if *jsonOut != "" {
		if err := writeBenchJSON(*jsonOut, o, records); err != nil {
			return err
		}
	}
	if flushTrace != nil {
		return flushTrace()
	}
	return nil
}

// benchRecord is one experiment's entry in the -json output; the file
// format is documented in EXPERIMENTS.md ("Machine-readable results").
type benchRecord struct {
	Experiment string `json:"experiment"`
	N          int    `json:"n"`
	Iters      int    `json:"iters"`     // trials per data point
	DurNs      int64  `json:"dur_ns"`    // experiment wall time
	NsPerOp    int64  `json:"ns_per_op"` // DurNs / Iters
	// Counters are telemetry deltas over the experiment: only experiments
	// wired to a Telemetry (ensemble, breeding) report them; the rest run
	// on internal packages and omit the field.
	Counters map[string]uint64 `json:"counters,omitempty"`
}

type benchFile struct {
	V          int           `json:"v"` // file schema version
	GoMaxProcs int           `json:"go_max_procs"`
	Pop        int           `json:"pop"`
	Gens       int           `json:"gens"`
	Seed       int64         `json:"seed"`
	Runs       []benchRecord `json:"experiments"`
}

func newBenchRecord(name string, o experiments.Options, elapsed time.Duration, before, after cold.TelemetrySnapshot) benchRecord {
	o = experiments.Normalized(o)
	iters := max(o.Trials, 1)
	rec := benchRecord{
		Experiment: name,
		N:          o.N,
		Iters:      iters,
		DurNs:      elapsed.Nanoseconds(),
		NsPerOp:    elapsed.Nanoseconds() / int64(iters),
	}
	counters := map[string]uint64{
		"replicas":     after.ReplicasDone - before.ReplicasDone,
		"generations":  after.Generations - before.Generations,
		"evaluations":  after.Evaluations - before.Evaluations,
		"cache_hits":   after.Eval.CacheHits - before.Eval.CacheHits,
		"cache_misses": after.Eval.CacheMisses - before.Eval.CacheMisses,
		"full_sweeps":  after.Eval.FullSweeps - before.Eval.FullSweeps,
		"csr_builds":   after.Eval.CSRBuilds - before.Eval.CSRBuilds,
	}
	any := false
	for _, v := range counters {
		any = any || v > 0
	}
	if any {
		rec.Counters = counters
	}
	return rec
}

func writeBenchJSON(path string, o experiments.Options, records []benchRecord) error {
	o = experiments.Normalized(o)
	b, err := json.MarshalIndent(benchFile{
		V:          1,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Pop:        o.GAPop,
		Gens:       o.GAGens,
		Seed:       o.Seed,
		Runs:       records,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runValidate runs the ensemble-scale validation experiment, optionally
// streaming every per-topology JSONL record to recordsPath.
func runValidate(o experiments.Options, count int, recordsPath string) ([]*experiments.Table, error) {
	if recordsPath == "" {
		tables, _, err := experiments.Validate(o, count, nil)
		return tables, err
	}
	f, err := os.Create(recordsPath)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	tables, _, err := experiments.Validate(o, count, bw)
	if err != nil {
		f.Close() //nolint:errcheck
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		f.Close() //nolint:errcheck
		return nil, fmt.Errorf("validate records: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("validate records: %w", err)
	}
	return tables, nil
}

// ensembleThroughput times the parallel ensemble engine against the serial
// path on the same workload and verifies the outputs are identical — the
// before/after numbers for the worker-pool GenerateEnsemble.
func ensembleThroughput(o experiments.Options, tel *cold.Telemetry) (*experiments.Table, error) {
	o = experiments.Normalized(o)
	count := max(o.Trials, 8)
	cfg := cold.Config{
		NumPoPs:   o.N,
		Seed:      o.Seed,
		Telemetry: tel,
		Optimizer: cold.OptimizerSpec{
			PopulationSize: o.GAPop,
			Generations:    o.GAGens,
		},
	}
	t := &experiments.Table{
		Title: fmt.Sprintf("Ensemble throughput (%d networks, n=%d, M=%d, T=%d, %d CPUs)",
			count, o.N, o.GAPop, o.GAGens, runtime.GOMAXPROCS(0)),
		Notes:   []string{"identical seeds give identical networks at every parallelism"},
		Columns: []string{"parallelism", "seconds", "nets/sec", "speedup"},
	}
	levels := []int{1}
	if runtime.GOMAXPROCS(0) > 1 {
		levels = append(levels, runtime.GOMAXPROCS(0))
	}
	var base float64
	var serial []*cold.Network
	for _, par := range levels {
		c := cfg
		c.Parallelism = par
		start := time.Now()
		nets, err := cold.GenerateEnsemble(c, count)
		if err != nil {
			return nil, err
		}
		secs := time.Since(start).Seconds()
		if par == 1 {
			base = secs
			serial = nets
		} else {
			for i := range nets {
				if nets[i].Cost.Total != serial[i].Cost.Total || len(nets[i].Links) != len(serial[i].Links) {
					return nil, fmt.Errorf("ensemble: parallel output diverged from serial at member %d", i)
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", par),
			fmt.Sprintf("%.2f", secs),
			fmt.Sprintf("%.2f", float64(count)/secs),
			fmt.Sprintf("%.2fx", base/secs),
		})
	}
	return t, nil
}

// breedingThroughput times a single large GA run (cold.Generate) with the
// inner worker pool off and on. Since the per-offspring rng streams made
// breeding order-independent, both offspring construction and fitness
// evaluation fan out — and the resulting network must be bit-identical at
// every parallelism, which this experiment also verifies.
func breedingThroughput(o experiments.Options, tel *cold.Telemetry) (*experiments.Table, error) {
	o = experiments.Normalized(o)
	cfg := cold.Config{
		NumPoPs:   o.N,
		Seed:      o.Seed,
		Telemetry: tel,
		Optimizer: cold.OptimizerSpec{
			// Scale the population up so offspring construction, not just
			// fitness evaluation, is a visible fraction of the run.
			PopulationSize: 4 * o.GAPop,
			Generations:    o.GAGens,
		},
	}
	t := &experiments.Table{
		Title: fmt.Sprintf("GA breeding throughput (one run, n=%d, M=%d, T=%d, %d CPUs)",
			o.N, 4*o.GAPop, o.GAGens, runtime.GOMAXPROCS(0)),
		Notes:   []string{"per-offspring rng streams keep the run bit-identical at every parallelism"},
		Columns: []string{"parallelism", "seconds", "speedup", "cost"},
	}
	levels := []int{1}
	if runtime.GOMAXPROCS(0) > 1 {
		levels = append(levels, runtime.GOMAXPROCS(0))
	}
	var base float64
	var serial *cold.Network
	for _, par := range levels {
		c := cfg
		c.Parallelism = par
		start := time.Now()
		nw, err := cold.Generate(c)
		if err != nil {
			return nil, err
		}
		secs := time.Since(start).Seconds()
		if par == 1 {
			base = secs
			serial = nw
		} else if nw.Cost.Total != serial.Cost.Total || len(nw.Links) != len(serial.Links) {
			return nil, fmt.Errorf("breeding: parallel output diverged from serial (cost %v vs %v)",
				nw.Cost.Total, serial.Cost.Total)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", par),
			fmt.Sprintf("%.2f", secs),
			fmt.Sprintf("%.2fx", base/secs),
			fmt.Sprintf("%.1f", nw.Cost.Total),
		})
	}
	return t, nil
}
