package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	cold "github.com/networksynth/cold"
)

// tinySizes shrink every input so that a whole invocation, traced or not,
// takes about a second; the metric names and the checks stay the same.
var tinySizes = sizes{
	paper:          shape{n: 8, pop: 8, gens: 4},
	large:          shape{n: 12, pop: 8, gens: 4},
	service:        shape{n: 8, pop: 8, gens: 4},
	ensembleCount:  4,
	serviceCount:   2,
	hotSet:         2,
	hitShare:       0.8,
	setups:         2,
	warmupGens:     2,
	small:          shape{n: 8, pop: 8, gens: 4},
	big:            shape{n: 12, pop: 8, gens: 4},
	replicas:       2,
	deltaEdits:     4,
	storeArtifacts: 4,
	probeService:   300 * time.Millisecond,
	telemetryPairs: 1,
	serveFor:       time.Millisecond,
}

// spec is the part of BENCHMARK.json the tests compare against.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func buildColdd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "coldd")
	cmd := exec.Command("go", "build", "-o", bin, "github.com/networksynth/cold/cmd/coldd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("building coldd: %v", err)
	}
	return bin
}

// TestEveryMetricIsPrinted runs every workload of BENCHMARK.json plain and
// traced at tiny sizes. The result must carry exactly the metrics the file
// names, with their units, every one also printed by name, and every
// output must have passed its checks.
func TestEveryMetricIsPrinted(t *testing.T) {
	sp := readSpec(t)
	coldd := buildColdd(t)
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			b := &bench{workload: w.Name, seed: 7, dur: 300 * time.Millisecond, traced: traced,
				coldd: coldd, workDir: t.TempDir(), workers: 2, sz: tinySizes}
			var out bytes.Buffer
			rep, err := b.run(&out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
				if !bytes.Contains(out.Bytes(), []byte(m.Name+" ")) {
					t.Errorf("%s traced=%v: %s not printed", w.Name, traced, m.Name)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s",
					w.Name, traced, rep.Correct, rep.Failed, rep.Attempted, out.String())
			}
		}
	}
}

// flipAfter returns line with the byte just after the first occurrence of
// marker flipped in its lowest bit (a digit stays a digit).
func flipAfter(t *testing.T, line []byte, marker string) []byte {
	t.Helper()
	i := bytes.Index(line, []byte(marker))
	if i < 0 {
		t.Fatalf("%q not in the network line", marker)
	}
	bad := bytes.Clone(line)
	bad[i+len(marker)] ^= 1
	return bad
}

// TestCorruptOutputIsFailedNotTimed flips single bytes of real outputs:
// each corruption must be caught, counted as failed, and left out of the
// timings. A flip in the last digits of a coordinate or population can
// leave a network that is self-consistent for its slightly moved inputs;
// the pinned warm-up digest, not verifyNetwork, guards those bytes.
func TestCorruptOutputIsFailedNotTimed(t *testing.T) {
	nw, err := cold.Generate(cold.Config{NumPoPs: 8, Seed: 3, Parallelism: 1,
		Optimizer: cold.OptimizerSpec{PopulationSize: 8, Generations: 4}})
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(nw)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyNetwork(line, 8); err != nil {
		t.Fatalf("intact network rejected: %v", err)
	}
	var bad []byte
	for _, marker := range []string{
		`{`, `"points":[`, `"links":[{"A":`, `"Capacity":`, `"demand":[[0,`,
		`"Cost":{"Total":`, `"Bandwidth":`, `"NumLinks":`, `"Diameter":`, `"AvgPathLen":`,
	} {
		bad = flipAfter(t, line, marker)
		if verifyNetwork(bad, 8) == nil {
			t.Errorf("byte after %s flipped and still accepted", marker)
		}
	}

	var o outcome
	o.tally([]call{{gen: time.Second, first: time.Second, serve: []time.Duration{1, 1}, lines: [][]byte{line, bad}}}, 2, 8)
	if o.attempted != 2 || o.failed != 1 || o.networks != 0 || len(o.gen)+len(o.first)+len(o.serve) != 0 {
		t.Errorf("a call with one corrupt network: attempted %d failed %d networks %d, %d+%d+%d timings; want 2, 1, 0 and none",
			o.attempted, o.failed, o.networks, len(o.gen), len(o.first), len(o.serve))
	}

	// A coldd hit must equal the verified miss body byte for byte.
	b := &bench{sz: tinySizes}
	ref := jsonl([][]byte{line, line})
	body := bytes.Clone(ref)
	body[len(body)/2] ^= 1
	r := reply{status: http.StatusOK, body: body, header: http.Header{
		"X-Cold-Config-Hash": {"h"}, "X-Cold-Count": {"2"}, "X-Cold-Cache": {"hit"}}}
	if err := b.checkReply(&r, svcConfig{hash: "h"}, "hit", ref); err == nil {
		t.Error("hit body with a flipped byte accepted")
	}
	r.body = ref
	if err := b.checkReply(&r, svcConfig{hash: "h"}, "hit", ref); err != nil {
		t.Errorf("intact hit rejected: %v", err)
	}
}
