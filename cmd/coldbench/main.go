// Command coldbench regenerates every table and figure of the COLD paper's
// evaluation, plus the ensemble-scale validate scorecard. Each experiment
// prints the rows/series the paper reports.
//
// Usage:
//
//	coldbench [flags] <experiment>...
//	coldbench -trials 20 fig3 fig5
//	coldbench all
//
// Experiments: table1 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8a fig8b fig9
// brute context routers extras validate all.
// Figures 5–7 share one sweep, as do 8b and 9, so requesting several of
// them together reuses the runs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/networksynth/cold/internal/experiments"
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
	validateCount := fs.Int("validate-count", 1000, "COLD ensemble size for the validate experiment")
	validateRecords := fs.String("validate-records", "", "write the validate experiment's per-topology JSONL records to this file (e.g. VALIDATE_COLD.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		return fmt.Errorf("no experiment given; try: coldbench all (options: table1 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8a fig8b fig9 brute context routers extras validate)")
	}
	if len(names) == 1 && names[0] == "all" {
		names = []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig9", "brute", "context", "routers", "extras", "validate"}
	}

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
		case "extras":
			tables = []*experiments.Table{experiments.ExtraFeatures(0, o)}
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
		fmt.Fprintf(stdout, "-- %s done in %.1fs --\n\n", name, time.Since(start).Seconds())
	}
	return nil
}

// runValidate runs the ensemble-scale validation experiment, optionally
// streaming every per-topology JSONL record to recordsPath.
func runValidate(o experiments.Options, count int, recordsPath string) ([]*experiments.Table, error) {
	if recordsPath == "" {
		return experiments.Validate(o, count, nil)
	}
	f, err := os.Create(recordsPath)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	tables, err := experiments.Validate(o, count, bw)
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
