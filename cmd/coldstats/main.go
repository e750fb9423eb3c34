// Command coldstats prints topology statistics for a network stored as
// coldgen JSON, or — with -zoo — for the Topology-Zoo stand-in ensemble.
// The trace subcommand summarizes a JSONL telemetry trace: per-replica phase
// timings, GA convergence and evaluator counter rollups.
//
// Usage:
//
//	coldgen -n 30 -out net.json && coldstats net.json
//	coldstats -zoo
//	coldgen -n 30 -count 4 -trace trace.jsonl -out /dev/null && coldstats trace trace.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/stats"
	"github.com/networksynth/cold/internal/zoo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coldstats:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "trace" {
		return runTrace(args[1:], stdout)
	}
	fs := flag.NewFlagSet("coldstats", flag.ContinueOnError)
	zooFlag := fs.Bool("zoo", false, "summarize the Topology-Zoo stand-in ensemble instead of a file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *zooFlag {
		return zooStats(stdout)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: coldstats <network.json> | coldstats -zoo")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var nw cold.Network
	if err := json.Unmarshal(data, &nw); err != nil {
		return err
	}
	st := nw.Stats()
	fmt.Fprintf(stdout, "PoPs:            %d\n", st.NumPoPs)
	fmt.Fprintf(stdout, "links:           %d\n", st.NumLinks)
	fmt.Fprintf(stdout, "average degree:  %.3f\n", st.AverageDegree)
	fmt.Fprintf(stdout, "degree CV:       %.3f\n", st.DegreeCV)
	fmt.Fprintf(stdout, "diameter (hops): %d\n", st.Diameter)
	fmt.Fprintf(stdout, "clustering:      %.3f\n", st.Clustering)
	fmt.Fprintf(stdout, "hub PoPs:        %d\n", st.Hubs)
	fmt.Fprintf(stdout, "leaf PoPs:       %d\n", st.Leaves)
	fmt.Fprintf(stdout, "avg path (hops): %.3f\n", st.AvgPathLen)
	fmt.Fprintf(stdout, "total cost:      %.4f\n", nw.Cost.Total)
	fmt.Fprintf(stdout, "  existence:     %.4f\n", nw.Cost.Existence)
	fmt.Fprintf(stdout, "  length:        %.4f\n", nw.Cost.Length)
	fmt.Fprintf(stdout, "  bandwidth:     %.4f\n", nw.Cost.Bandwidth)
	fmt.Fprintf(stdout, "  node:          %.4f\n", nw.Cost.Node)
	return nil
}

func zooStats(w io.Writer) error {
	nets := zoo.DefaultEnsemble()
	cvs := zoo.CVNDs(nets)
	gccs := zoo.Clusterings(nets)
	fmt.Fprintf(w, "Topology-Zoo stand-in: %d networks\n", len(nets))
	fmt.Fprintf(w, "CVND  median %.3f, 90th pct %.3f, max %.3f, fraction > 1: %.3f\n",
		stats.Percentile(cvs, 0.5), stats.Percentile(cvs, 0.9), pMax(cvs), stats.FractionAbove(cvs, 1))
	fmt.Fprintf(w, "GCC   median %.3f, 90th pct %.3f, fraction > 0.25: %.3f\n",
		stats.Percentile(gccs, 0.5), stats.Percentile(gccs, 0.9), stats.FractionAbove(gccs, 0.25))
	return nil
}

func pMax(xs []float64) float64 {
	_, hi := stats.MinMax(xs)
	return hi
}
