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
	"slices"
	"strings"
	"sync"
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

	// Shared sweeps, computed at most once.
	tunability := sync.OnceValue(func() *experiments.TunabilityResult { return experiments.TunabilitySweep(o) })
	hubbiness := sync.OnceValue(func() *experiments.HubbinessResult { return experiments.HubbinessSweep(o) })
	// Every experiment, in the order `all` runs them; each returns the
	// tables it prints.
	type tables = []*experiments.Table
	exps := []struct {
		name string
		run  func() (tables, error)
	}{
		{"table1", func() (tables, error) { return tables{experiments.Table1(o)}, nil }},
		{"fig1", func() (tables, error) { return tables{experiments.Fig1(o)}, nil }},
		{"fig2", func() (tables, error) { return tables{experiments.Fig2(o)}, nil }},
		{"fig3", func() (tables, error) { return tables{experiments.Fig3(0, o), experiments.Fig3(10, o)}, nil }},
		{"fig4", func() (tables, error) { return tables{experiments.Fig4(nil, o)}, nil }},
		{"fig5", func() (tables, error) { return tables{tunability().Fig5()}, nil }},
		{"fig6", func() (tables, error) { return tables{tunability().Fig6()}, nil }},
		{"fig7", func() (tables, error) { return tables{tunability().Fig7()}, nil }},
		{"fig8a", func() (tables, error) { return tables{experiments.Fig8a(zoo.CVNDs(zoo.DefaultEnsemble()), o)}, nil }},
		{"fig8b", func() (tables, error) { return tables{hubbiness().Fig8b()}, nil }},
		{"fig9", func() (tables, error) { return tables{hubbiness().Fig9()}, nil }},
		{"brute", func() (tables, error) { return tables{experiments.Brute(o)}, nil }},
		{"context", func() (tables, error) { return tables{experiments.ContextSensitivity(o)}, nil }},
		{"routers", func() (tables, error) { return tables{experiments.RouterSpread(o)}, nil }},
		{"extras", func() (tables, error) { return tables{experiments.ExtraFeatures(0, o)}, nil }},
		{"validate", func() (tables, error) { return runValidate(o, *validateCount, *validateRecords) }},
	}
	all := make([]string, len(exps))
	for i, e := range exps {
		all[i] = e.name
	}
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: coldbench [flags] <experiment>...\nexperiments: %s all\n", strings.Join(all, " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		return fmt.Errorf("no experiment given; try: coldbench all (options: %s)", strings.Join(all, " "))
	}
	if len(names) == 1 && names[0] == "all" {
		names = all
	}
	// Resolve every name before running any, so a typo or a misplaced flag
	// fails at once instead of after the experiments before it.
	todo := make([]int, len(names))
	for k, name := range names {
		if todo[k] = slices.Index(all, name); todo[k] >= 0 {
			continue
		}
		if strings.HasPrefix(name, "-") {
			return fmt.Errorf("flag %s after experiment names: flags go before experiment names", name)
		}
		return fmt.Errorf("unknown experiment %q", name)
	}

	for _, i := range todo {
		start := time.Now()
		ts, err := exps[i].run()
		if err != nil {
			return err
		}
		for _, t := range ts {
			if err := t.Print(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "-- %s done in %.1fs --\n\n", exps[i].name, time.Since(start).Seconds())
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
