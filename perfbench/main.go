// Command perfbench is COLD's end-to-end benchmark. It runs one workload
// for a fixed time, checks every output the program produced, and prints
// the workload's metrics as one JSON object on the last line of stdout:
//
//	perfbench -workload paper-ensemble -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the object holds the end-to-end metrics. With -trace 1 the
// workload runs twice, plain and then with spans around every call into the
// program, after which each layer's public functions are timed on the
// workload's own data; the object then holds the per-layer metrics. The
// lines before the result give the provenance, every metric with its unit
// and sample base, and (traced) the end-to-end metric each layer metric
// should move. run.sh builds this command and coldd from the source tree
// and runs it from the repository root; README.md explains the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeed is the workload seed the pinned warm-up digest belongs to:
// every paper-ensemble set-up generates the same ensemble from it.
const defaultSeed = 1

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line. Its four keys are the benchmark's contract.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner. phase numbers the runs
// of one invocation (plain, traced, coldd probe); each gets its own caches.
var workloads = map[string]func(b *bench, phase int, dur time.Duration) (*outcome, error){
	"paper-ensemble": paperEnsemble,
	"large-n":        largeN,
	"service-mix":    serviceMix,
}

// bench is one invocation: its flags, input sizes and trace.
type bench struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	coldd    string // coldd binary
	workDir  string // caches, stores and trace files live below it
	runDir   string // this invocation's scratch directory, removed at exit
	workers  int    // worker goroutines and client connections: nproc
	sz       sizes
	tr       *tracer  // nil except in the traced phase
	notes    []string // sample bases of the per-layer metrics
}

func main() {
	b, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := b.run(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseArgs(args []string) (*bench, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	b := &bench{sz: benchSizes, workers: runtime.NumCPU()}
	var seconds float64
	var trace int
	fs.StringVar(&b.workload, "workload", "", "paper-ensemble, large-n or service-mix")
	fs.Int64Var(&b.seed, "seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
	fs.StringVar(&b.coldd, "coldd", ".bench_build/coldd", "coldd binary (service-mix and the traced coldd probe)")
	fs.StringVar(&b.workDir, "workdir", ".bench_build/work", "directory for caches, stores and trace files")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[b.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want paper-ensemble, large-n or service-mix)", b.workload)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("-seconds %v must be positive", seconds)
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace %d must be 0 or 1", trace)
	}
	b.dur = time.Duration(seconds * float64(time.Second))
	b.traced = trace == 1
	return b, nil
}

// run executes the invocation, prints the provenance and per-metric lines
// to w, and returns the result line.
func (b *bench) run(w io.Writer) (*report, error) {
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.workDir, b.workload+"-")
	if err != nil {
		return nil, err
	}
	b.runDir = dir
	defer os.RemoveAll(dir)
	prov, err := json.Marshal(map[string]any{"provenance": b.provenance()})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(prov))

	runWorkload := workloads[b.workload]
	plain, err := runWorkload(b, 0, b.dur)
	if err != nil {
		return nil, err
	}
	rep := &report{Attempted: plain.attempted, Failed: plain.failed}
	if !b.traced {
		rep.Metrics = endToEnd(plain)
		printEndToEnd(w, rep, plain)
		rep.Correct = plain.failed == 0 && plain.attempted > 0
		return rep, nil
	}

	b.tr = newTracer()
	traced, err := runWorkload(b, 1, b.dur)
	if err != nil {
		return nil, err
	}
	rep.Attempted += traced.attempted
	rep.Failed += traced.failed
	values, probeFailed, err := b.layers(plain, traced)
	if err != nil {
		return nil, err
	}
	rep.Failed += probeFailed
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	rep.Metrics = make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		v, ok := values[lm.name]
		if !ok {
			return nil, fmt.Errorf("layer metric %s was not measured", lm.name)
		}
		rep.Metrics[lm.name] = metric{Value: v, Unit: lm.unit}
		fmt.Fprintf(w, "%-26s %14.6g %-5s moves %s\n", lm.name, v, lm.unit, lm.moves)
	}
	for _, n := range b.notes {
		fmt.Fprintln(w, "base:", n)
	}
	path := filepath.Join(b.workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", b.workload, b.seed))
	if err := b.tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans written to %s; self time by span name:\n", path)
	b.tr.summary(w)
	return rep, nil
}

// note records the sample base of a per-layer metric for the report.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// provenance records what produced the numbers: the machine, the Go
// toolchain, the source tree, and the workload's inputs and flags.
func (b *bench) provenance() map[string]any {
	return map[string]any{
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
		"workload":      b.workload,
		"seed":          b.seed,
		"seconds":       b.dur.Seconds(),
		"trace":         b.traced,
		"workers":       b.workers,
		"coldd_flags":   colddArgs("<cache>"),
		"sizes":         fmt.Sprintf("%+v", b.sz),
	}
}
