package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fast.golden")

// doneLine matches the per-experiment timing footer, the one part of the
// output that varies from run to run.
var doneLine = regexp.MustCompile(`(?m)^-- \S+ done in [0-9.]+s --\n`)

// TestGoldenOutput pins coldbench's printed bytes at the fast flags for
// every experiment but fig4, whose cells are timings. A harness refactor
// must leave them unchanged; an intentional change is blessed with
//
//	go test ./cmd/coldbench -run TestGoldenOutput -update
//
// The fixture is blessed on linux/amd64 (see the root package's golden
// note on FMA fusion elsewhere).
func TestGoldenOutput(t *testing.T) {
	var out bytes.Buffer
	args := append(append([]string{}, fastFlags...), "-validate-count", "6",
		"table1", "fig1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig9",
		"brute", "context", "routers", "extras", "validate")
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	got := doneLine.ReplaceAll(out.Bytes(), nil)
	path := filepath.Join("testdata", "fast.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update to bless): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (%d vs %d bytes):\n%s", path, len(got), len(want), got)
	}
}
