package validate

// Golden fixtures for the two machine-readable schemas this package owns:
// the per-topology JSONL record stream and the scorecard JSON. Any change
// to record fields, metric definitions, float formatting, bootstrap rng
// consumption or distance accumulation shows up as a byte diff here.
//
// To bless intentional changes, regenerate and review the diff:
//
//	go test ./internal/validate -run TestGolden -update
//
// Fixtures are blessed on linux/amd64; FMA fusion on other architectures
// can perturb low-order float bits (see the root package's golden note).

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	cold "github.com/networksynth/cold"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures under testdata/golden/")

// goldenEnsembles builds the pinned subject (COLD, 5 replicas) and
// reference (zoo stand-in, 30 networks) ensembles, returning the record
// bytes and the scorecard bytes.
func goldenEnsembles(t *testing.T) ([]byte, []byte) {
	t.Helper()
	var records bytes.Buffer
	cfg := cold.Config{
		NumPoPs:     8,
		Seed:        7,
		Parallelism: 4,
		Optimizer:   cold.OptimizerSpec{PopulationSize: 12, Generations: 6},
	}
	subject, err := Run(context.Background(), ColdSource(cfg, 5), &records)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(context.Background(), GraphsSource("zoo", testZooGraphs(30)), &records)
	if err != nil {
		t.Fatal(err)
	}
	sc := Score(subject, ref, ScoreOptions{Bootstrap: 300, Seed: 7})
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return records.Bytes(), append(b, '\n')
}

func TestGoldenRecordsAndScorecard(t *testing.T) {
	records, scorecard := goldenEnsembles(t)
	checkGolden(t, "records.jsonl", records)
	checkGolden(t, "scorecard.json", scorecard)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("blessed %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update to bless): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from fixture (%d vs %d bytes); rerun with -update to bless an intentional change\n%s",
			name, len(got), len(want), diffPreview(got, want))
	}
}

// diffPreview locates the first differing line for the failure message.
func diffPreview(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("first diff at line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(g), len(w))
}
