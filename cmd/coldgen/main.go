// Command coldgen synthesizes PoP-level network topologies with COLD and
// writes them as JSON, Graphviz DOT or TSV.
//
// Usage:
//
//	coldgen -n 30 -k2 4e-4 -k3 10 -seed 7 -format json -out net.json
//	coldgen -n 30 -count 5 -format tsv          # ensemble to stdout
//
// The output contains everything a simulation needs: PoP coordinates,
// populations, the traffic matrix, links with lengths and capacities, the
// cost breakdown and topology statistics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/core"
	"github.com/networksynth/cold/internal/diag"
	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/render"
	"github.com/networksynth/cold/internal/telemetry"
)

func main() {
	// Ctrl-C cancels generation promptly instead of killing mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coldgen:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("coldgen", flag.ContinueOnError)
	n := fs.Int("n", 30, "number of PoPs")
	params, ga := cold.DefaultParams(), core.DefaultSettings()
	k0 := fs.Float64("k0", params.K0, "link existence cost")
	k1 := fs.Float64("k1", params.K1, "cost per unit link length")
	k2 := fs.Float64("k2", params.K2, "cost per unit length per unit bandwidth")
	k3 := fs.Float64("k3", params.K3, "complexity cost per hub PoP")
	seed := fs.Int64("seed", 1, "random seed")
	count := fs.Int("count", 1, "number of networks to generate")
	format := fs.String("format", "json", "output format: json, dot, tsv, ascii")
	out := fs.String("out", "", "output file (default stdout; with count > 1 a numbered suffix is added)")
	locations := fs.String("locations", "uniform", "PoP location model: uniform, clustered, grid")
	trafficModel := fs.String("traffic", "exponential", "population model: exponential, pareto, uniform")
	paretoShape := fs.Float64("pareto-shape", 0, "Pareto tail exponent (traffic=pareto; 0 = the library default)")
	pop := fs.Int("pop", ga.PopulationSize, "GA population size M")
	gens := fs.Int("gens", ga.Generations, "GA generations T")
	heur := fs.Bool("heuristics", true, "seed the GA with greedy heuristic solutions (initialised GA)")
	parallel := fs.Int("parallel", 0, "worker goroutines (0 = all CPUs); results are identical for every setting")
	progress := fs.Bool("progress", false, "report ensemble progress on stderr")
	trace := fs.String("trace", "", "write a JSONL telemetry trace to this file (see DESIGN.md, Observability; analyze with coldstats trace)")
	metricsAddr := fs.String("metrics", "", "serve Prometheus /metrics and pprof on this address (e.g. :6060 or localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tel *cold.Telemetry
	if *trace != "" || *metricsAddr != "" {
		tel = cold.NewTelemetry()
	}
	if *trace != "" {
		w, finish, ferr := telemetry.CreateFile(*trace)
		if ferr != nil {
			return ferr
		}
		tel.TraceTo(w)
		// A failed or canceled run keeps the events it recorded.
		defer func() {
			if ferr := finish(tel.TraceErr()); err == nil && ferr != nil {
				err = fmt.Errorf("trace: %w", ferr)
			}
		}()
	}
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		tel.RegisterMetrics(reg)
		diag.RegisterBuildInfo(reg)
		diag.RegisterRuntime(reg)
		addr, shutdown, err := diag.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer shutdown() //nolint:errcheck
		fmt.Fprintf(os.Stderr, "coldgen: metrics on http://%s/metrics (pprof on /debug/pprof/)\n", addr)
	}

	cfg := cold.Config{
		NumPoPs:     *n,
		Params:      cold.Params{K0: *k0, K1: *k1, K2: *k2, K3: *k3},
		Seed:        *seed,
		Parallelism: *parallel,
		Telemetry:   tel,
		Traffic:     cold.TrafficSpec{ParetoShape: *paretoShape},
		Optimizer: cold.OptimizerSpec{
			PopulationSize:     *pop,
			Generations:        *gens,
			SeedWithHeuristics: *heur,
		},
	}
	switch *locations {
	case "uniform":
		cfg.Locations.Kind = cold.LocUniform
	case "clustered":
		cfg.Locations.Kind = cold.LocClustered
	case "grid":
		cfg.Locations.Kind = cold.LocGrid
	default:
		return fmt.Errorf("unknown location model %q", *locations)
	}
	switch *trafficModel {
	case "exponential":
		cfg.Traffic.Kind = cold.TrafficExponential
	case "pareto":
		cfg.Traffic.Kind = cold.TrafficPareto
	case "uniform":
		cfg.Traffic.Kind = cold.TrafficUniform
	default:
		return fmt.Errorf("unknown traffic model %q", *trafficModel)
	}

	// Each network is written (and its file closed) as it arrives, in
	// replica order.
	return cold.GenerateEnsembleStream(ctx, cfg, *count, func(i int, nw *cold.Network) error {
		if err := save(nw, i, *count, *out, *format, stdout); err != nil {
			return err
		}
		if *progress {
			fmt.Fprintf(os.Stderr, "coldgen: %d/%d networks\n", i+1, *count)
		}
		return nil
	})
}

// save writes network i of count to stdout, or to the file out (suffixed
// ".i" when count > 1).
func save(nw *cold.Network, i, count int, out, format string, stdout io.Writer) error {
	if out == "" {
		return write(nw, format, stdout)
	}
	if count > 1 {
		out = fmt.Sprintf("%s.%d", out, i)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := write(nw, format, f); err != nil {
		f.Close() //nolint:errcheck // the write error is the one to report
		return err
	}
	return f.Close()
}

func write(nw *cold.Network, format string, w io.Writer) error {
	if format == "ascii" {
		pts := make([]geom.Point, nw.N())
		for i, p := range nw.Points {
			pts[i] = geom.Point{X: p.X, Y: p.Y}
		}
		g := graph.New(nw.N())
		for _, l := range nw.Links {
			g.AddEdge(l.A, l.B)
		}
		_, err := io.WriteString(w, render.ASCII(pts, g, 72, 32))
		return err
	}
	f, err := cold.ParseExportFormat(format)
	if err != nil {
		return fmt.Errorf("unknown format %q (want json, dot, tsv or ascii)", format)
	}
	return nw.Export(w, f)
}
