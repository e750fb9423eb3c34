package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fastFlags keeps test invocations sub-second.
var fastFlags = []string{"-trials", "2", "-n", "8", "-pop", "12", "-gens", "6", "-bootstrap", "50"}

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(append(fastFlags, "table1"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "== Table 1:") || !strings.Contains(s, "-- table1 done") {
		t.Errorf("output malformed:\n%s", s)
	}
}

func TestRunSharedSweepOnce(t *testing.T) {
	var out bytes.Buffer
	if err := run(append(fastFlags, "fig5", "fig6", "fig7"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 5:", "Figure 6:", "Figure 7:"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in output", want)
		}
	}
	// Figures 6 and 7 reuse the sweep, so they must complete much faster
	// than figure 5 — we can't assert timing robustly, but we can check
	// all three printed.
}

func TestRunFig2AndBrute(t *testing.T) {
	var out bytes.Buffer
	if err := run(append(fastFlags, "fig2", "brute", "fig8a"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 2:", "§5 validation", "Figure 8a:"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("no experiment should error")
	}
	if err := run([]string{"fig99"}, &out); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := run([]string{"-trials", "x"}, &out); err == nil {
		t.Error("bad flag should error")
	}
	// Every name is checked before any experiment runs: a valid name ahead
	// of an unknown one or a flag prints nothing.
	if err := run(append(fastFlags, "table1", "fig99"), &out); err == nil || !strings.Contains(err.Error(), `unknown experiment "fig99"`) {
		t.Errorf("unknown experiment after table1: err = %v", err)
	}
	if err := run(append(fastFlags, "table1", "-trials", "4"), &out); err == nil || !strings.Contains(err.Error(), "flags go before experiment names") {
		t.Errorf("flag after table1: err = %v, want flags go before experiment names", err)
	}
	if out.Len() != 0 {
		t.Errorf("an experiment ran before the names were checked:\n%s", out.String())
	}
	// Timing harnesses and their flags live in perfbench, not here.
	for _, name := range []string{"dijkstra", "csr", "ensemble", "breeding"} {
		if err := run(append(fastFlags, name), &out); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("experiment %q: err = %v, want unknown experiment", name, err)
		}
	}
	for _, flag := range []string{"-json", "-trace", "-metrics"} {
		if err := run([]string{flag, "x", "table1"}, &out); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("flag %s: err = %v, want undefined flag", flag, err)
		}
	}
}

func TestRunRoutersAndExtras(t *testing.T) {
	var out bytes.Buffer
	if err := run(append(fastFlags, "routers", "extras"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"router-count spread", "§6 extras", "-- routers done", "-- extras done"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRunValidateExperiment(t *testing.T) {
	records := filepath.Join(t.TempDir(), "VALIDATE_COLD.jsonl")
	var out bytes.Buffer
	args := append(fastFlags, "-validate-count", "6", "-validate-records", records, "validate")
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Ensemble characterization", "Validation scorecards", "-- validate done"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in output:\n%s", want, s)
		}
	}
	data, err := os.ReadFile(records)
	if err != nil {
		t.Fatal(err)
	}
	// 6 cold + 250 zoo + 250 er + 250 ba records, one JSON object per line.
	lines := bytes.Count(data, []byte("\n"))
	if want := 6 + 3*250; lines != want {
		t.Errorf("%d record lines, want %d", lines, want)
	}
	var rec map[string]any
	if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &rec); err != nil {
		t.Fatalf("first record not JSON: %v", err)
	}
	if rec["source"] != "cold" {
		t.Errorf("first record source = %v, want cold", rec["source"])
	}
}
