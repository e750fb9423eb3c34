package main

// The trace subcommand analyzes JSONL telemetry traces (DESIGN.md,
// "Observability"): the files coldgen writes with -trace and coldd
// writes per job under -trace-dir. It groups events into runs and
// prints, per run, the phase-timing breakdown of every replica, a GA
// convergence summary (best cost vs generation, diversity, elite
// survival), and the evaluator counter rollup.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/networksynth/cold/internal/telemetry"
)

// traceEvent is the union of every trace-event payload, tolerant of schema
// v1 through v4 (v2 adds run_id on run_start/run_end; v3 drops run_end's
// incremental-evaluation counters; v4 moves the evaluator counters from
// run_end to replica_end and drops the phase event and run_end's busy_ns
// and utilization). This decoder ignores the fields and events a later
// version dropped: the report computes every rollup from the facts.
// Field names are unique across event types except where events
// deliberately share them (replica, dur_ns, replicas, the evaluator
// counters), so one struct decodes every line.
type traceEvent struct {
	V     int    `json:"v"`
	Event string `json:"event"`
	RunID string `json:"run_id"`

	// run_start / run_end
	Replicas int `json:"replicas"`
	Workers  int `json:"workers"`
	N        int `json:"n"`
	Pop      int `json:"pop"`
	Gens     int `json:"gens"`

	// replica-scoped events
	Replica int   `json:"replica"`
	Worker  int   `json:"worker"`
	QueueNs int64 `json:"queue_ns"`

	// generation
	Gen           int     `json:"gen"`
	Best          float64 `json:"best"`
	Mean          float64 `json:"mean"`
	Diversity     float64 `json:"diversity"`
	EliteSurvived int     `json:"elite_survived"`
	BreedNs       int64   `json:"breed_ns"`
	EvalNs        int64   `json:"eval_ns"`

	// replica_end (and run_end: dur_ns, and the counters before v4)
	DurNs       int64   `json:"dur_ns"`
	Cost        float64 `json:"cost"`
	Links       int     `json:"links"`
	Err         string  `json:"err"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	FullSweeps  uint64  `json:"full_sweeps"`
}

// traceReplica accumulates one replica's events within a run.
type traceReplica struct {
	idx     int
	worker  int
	queueNs int64
	durNs   int64
	cost    float64
	links   int
	err     string
	breedNs int64 // summed over the generation events
	evalNs  int64
	ended   bool
}

// traceGen aggregates one generation index across a run's replicas.
type traceGen struct {
	n         int
	best      float64 // summed, divided on report
	mean      float64
	diversity float64
	elite     int
}

// traceRun is one run_start..run_end span of a trace file.
type traceRun struct {
	start    *traceEvent
	end      *traceEvent
	replicas map[int]*traceReplica
	gens     map[int]*traceGen
	maxGen   int
	busyNs   int64 // Σ replica_end dur_ns

	// Evaluator totals: the replica_end counters (v4) plus the run_end
	// counters (v1–v3). Each version writes them in one place only, so
	// the one sum reads every version.
	hits, misses, sweeps uint64
}

// addCounters folds one event's evaluator counters into the run totals.
func (tr *traceRun) addCounters(ev *traceEvent) {
	tr.hits += ev.CacheHits
	tr.misses += ev.CacheMisses
	tr.sweeps += ev.FullSweeps
}

func newTraceRun(start *traceEvent) *traceRun {
	return &traceRun{start: start, replicas: make(map[int]*traceReplica), gens: make(map[int]*traceGen), maxGen: -1}
}

func (tr *traceRun) replica(i int) *traceReplica {
	r, ok := tr.replicas[i]
	if !ok {
		r = &traceReplica{idx: i}
		tr.replicas[i] = r
	}
	return r
}

func (tr *traceRun) add(ev *traceEvent) {
	switch ev.Event {
	case "replica_start":
		r := tr.replica(ev.Replica)
		r.worker = ev.Worker
		r.queueNs = ev.QueueNs
	case "generation":
		r := tr.replica(ev.Replica)
		r.breedNs += ev.BreedNs
		r.evalNs += ev.EvalNs
		g, ok := tr.gens[ev.Gen]
		if !ok {
			g = &traceGen{}
			tr.gens[ev.Gen] = g
		}
		g.n++
		g.best += ev.Best
		g.mean += ev.Mean
		g.diversity += ev.Diversity
		g.elite += ev.EliteSurvived
		if ev.Gen > tr.maxGen {
			tr.maxGen = ev.Gen
		}
	case "replica_end":
		r := tr.replica(ev.Replica)
		r.worker = ev.Worker
		r.durNs = ev.DurNs
		r.cost = ev.Cost
		r.links = ev.Links
		r.err = ev.Err
		r.ended = true
		tr.busyNs += ev.DurNs
		tr.addCounters(ev)
	}
}

// parseTrace reads one JSONL trace, splitting events into runs at
// run_start boundaries. Events before the first run_start (a truncated
// file's tail half) are collected into an implicit headless run.
func parseTrace(rd io.Reader) (runs []*traceRun, lines int, err error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var cur *traceRun
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		lines++
		var ev traceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, lines, fmt.Errorf("line %d: %v", lines, err)
		}
		if ev.V < 1 || ev.V > telemetry.SchemaVersion {
			return nil, lines, fmt.Errorf("line %d: unsupported trace schema v%d (this coldstats understands v1..v%d)",
				lines, ev.V, telemetry.SchemaVersion)
		}
		switch ev.Event {
		case "run_start":
			cur = newTraceRun(&ev)
			runs = append(runs, cur)
		case "run_end":
			if cur != nil {
				cur.end = &ev
				cur.addCounters(&ev)
			}
			cur = nil
		default:
			if cur == nil {
				cur = newTraceRun(nil)
				runs = append(runs, cur)
			}
			cur.add(&ev)
		}
	}
	return runs, lines, sc.Err()
}

// runTrace is the `coldstats trace` entry point.
func runTrace(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("coldstats trace", flag.ContinueOnError)
	maxReplicas := fs.Int("replicas", 16, "largest per-replica table to print in full (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: coldstats trace [-replicas N] <trace.jsonl>...")
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		runs, lines, err := parseTrace(f)
		f.Close() //nolint:errcheck // read-only
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(stdout, "%s: %d events, %d runs\n", path, lines, len(runs))
		for i, tr := range runs {
			printRun(stdout, i, tr, *maxReplicas)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func printRun(w io.Writer, idx int, tr *traceRun, maxReplicas int) {
	head := fmt.Sprintf("run %d", idx+1)
	if tr.start != nil {
		if tr.start.RunID != "" {
			head += " run_id=" + tr.start.RunID
		}
		head += fmt.Sprintf(": replicas=%d workers=%d n=%d pop=%d gens=%d",
			tr.start.Replicas, tr.start.Workers, tr.start.N, tr.start.Pop, tr.start.Gens)
	} else {
		head += " (missing run_start — truncated trace?)"
	}
	fmt.Fprintln(w, head)

	if end := tr.end; end != nil {
		util := 0.0
		if end.DurNs > 0 && end.Workers > 0 {
			util = float64(tr.busyNs) / (float64(end.DurNs) * float64(end.Workers))
		}
		fmt.Fprintf(w, "  wall %v, busy %v, utilization %.2f\n", ns(end.DurNs), ns(tr.busyNs), util)
	} else {
		fmt.Fprintln(w, "  (missing run_end — run canceled or trace truncated)")
	}
	// A run without run_end (a single Generate, or a canceled run) still
	// reports the counters its v4 replica_end events carried.
	if lookups := tr.hits + tr.misses; tr.end != nil || lookups > 0 {
		fmt.Fprintf(w, "  evaluator: %d cost lookups", lookups)
		if lookups > 0 {
			fmt.Fprintf(w, " — cache hit %.1f%%, %d full sweeps", 100*float64(tr.hits)/float64(lookups), tr.sweeps)
		}
		fmt.Fprintln(w)
	}
	printConvergence(w, tr)
	printReplicas(w, tr, maxReplicas)
}

// printConvergence prints mean best-cost / diversity / elite-survival
// rows at sampled generations, plus how quickly the improvement landed.
func printConvergence(w io.Writer, tr *traceRun) {
	if tr.maxGen < 0 {
		return
	}
	mean := func(g int) (best, pop, div, elite float64, ok bool) {
		a := tr.gens[g]
		if a == nil || a.n == 0 {
			return 0, 0, 0, 0, false
		}
		n := float64(a.n)
		return a.best / n, a.mean / n, a.diversity / n, float64(a.elite) / n, true
	}
	first, _, _, _, ok0 := mean(0)
	last, _, _, _, okN := mean(tr.maxGen)
	fmt.Fprintf(w, "  convergence (mean over %d replicas):\n", len(tr.replicas))
	fmt.Fprintln(w, "    gen        best    pop mean   diversity  elite")
	for _, g := range sampleGens(tr.maxGen) {
		if best, pop, div, elite, ok := mean(g); ok {
			fmt.Fprintf(w, "    %4d %11.4f %11.4f  %9.2f  %5.1f\n", g, best, pop, div, elite)
		}
	}
	if ok0 && okN && first > last {
		impr := first - last
		// Walk only the generations present: gen numbers come from the
		// trace, so counting up to maxGen could take ~2^63 steps.
		present := make([]int, 0, len(tr.gens))
		for g := range tr.gens {
			if g >= 0 {
				present = append(present, g)
			}
		}
		sort.Ints(present)
		reached := tr.maxGen
		for _, g := range present {
			if best, _, _, _, ok := mean(g); ok && first-best >= 0.9*impr {
				reached = g
				break
			}
		}
		fmt.Fprintf(w, "    best cost %.4f -> %.4f (-%.1f%%), 90%% of the improvement by gen %d\n",
			first, last, 100*impr/first, reached)
	}
}

// sampleGens picks the generations to tabulate: 0, quartiles, and final.
func sampleGens(maxGen int) []int {
	// 3*maxGen/4 without overflowing on a huge maxGen.
	q3 := maxGen/4*3 + maxGen%4*3/4
	gens := []int{0, maxGen / 4, maxGen / 2, q3, maxGen}
	out := gens[:0]
	seen := -1
	for _, g := range gens {
		if g > seen {
			out = append(out, g)
			seen = g
		}
	}
	return out
}

func printReplicas(w io.Writer, tr *traceRun, maxReplicas int) {
	if len(tr.replicas) == 0 {
		return
	}
	reps := make([]*traceReplica, 0, len(tr.replicas))
	for _, r := range tr.replicas {
		reps = append(reps, r)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].idx < reps[j].idx })
	shown := reps
	if maxReplicas > 0 && len(reps) > maxReplicas {
		shown = reps[:maxReplicas]
	}
	fmt.Fprintln(w, "  replicas:")
	fmt.Fprintln(w, "    rep  worker      queue        dur      breed       eval        cost  links")
	for _, r := range shown {
		status := ""
		if r.err != "" {
			status = "  ERR " + r.err
		} else if !r.ended {
			status = "  (unfinished)"
		}
		fmt.Fprintf(w, "    %3d  %6d  %9v  %9v  %9v  %9v  %10.4f  %5d%s\n",
			r.idx, r.worker, ns(r.queueNs), ns(r.durNs), ns(r.breedNs), ns(r.evalNs), r.cost, r.links, status)
	}
	if len(shown) < len(reps) {
		fmt.Fprintf(w, "    ... %d more replicas (-replicas 0 to print all)\n", len(reps)-len(shown))
	}
}

// ns renders a nanosecond count as a rounded duration.
func ns(v int64) time.Duration {
	d := time.Duration(v)
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(10 * time.Nanosecond)
	}
}
