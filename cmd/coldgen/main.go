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
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	cold "github.com/networksynth/cold"
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

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("coldgen", flag.ContinueOnError)
	n := fs.Int("n", 30, "number of PoPs")
	k0 := fs.Float64("k0", 10, "link existence cost")
	k1 := fs.Float64("k1", 1, "cost per unit link length")
	k2 := fs.Float64("k2", 1e-4, "cost per unit length per unit bandwidth")
	k3 := fs.Float64("k3", 0, "complexity cost per hub PoP")
	seed := fs.Int64("seed", 1, "random seed")
	count := fs.Int("count", 1, "number of networks to generate")
	format := fs.String("format", "json", "output format: json, dot, tsv, ascii")
	out := fs.String("out", "", "output file (default stdout; with count > 1 a numbered suffix is added)")
	locations := fs.String("locations", "uniform", "PoP location model: uniform, clustered, grid")
	trafficModel := fs.String("traffic", "exponential", "population model: exponential, pareto, uniform")
	paretoShape := fs.Float64("pareto-shape", 1.5, "Pareto tail exponent (traffic=pareto)")
	pop := fs.Int("pop", 100, "GA population size M")
	gens := fs.Int("gens", 100, "GA generations T")
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
		Optimizer: cold.OptimizerSpec{
			PopulationSize:     *pop,
			Generations:        *gens,
			SeedWithHeuristics: *heur,
		},
	}
	if *progress {
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "coldgen: %d/%d networks\n", done, total)
		}
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
		cfg.Traffic.ParetoShape = *paretoShape
	case "uniform":
		cfg.Traffic.Kind = cold.TrafficUniform
	default:
		return fmt.Errorf("unknown traffic model %q", *trafficModel)
	}

	nets, err := cold.GenerateEnsembleContext(ctx, cfg, *count)
	if err != nil {
		return err
	}
	for i, nw := range nets {
		w := stdout
		if *out != "" {
			name := *out
			if *count > 1 {
				name = fmt.Sprintf("%s.%d", *out, i)
			}
			f, err := os.Create(name)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := write(nw, *format, w); err != nil {
			return err
		}
	}
	if flushTrace != nil {
		return flushTrace()
	}
	return nil
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
