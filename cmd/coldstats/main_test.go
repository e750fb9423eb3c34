package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cold "github.com/networksynth/cold"
)

func writeNetwork(t *testing.T) string {
	t.Helper()
	nw, err := cold.Generate(cold.Config{
		NumPoPs:   8,
		Seed:      1,
		Optimizer: cold.OptimizerSpec{PopulationSize: 16, Generations: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(nw)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStatsFile(t *testing.T) {
	path := writeNetwork(t)
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"PoPs:", "links:", "average degree:", "total cost:"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "PoPs:            8") {
		t.Errorf("PoP count wrong:\n%s", s)
	}
}

func TestStatsZoo(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-zoo"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Topology-Zoo stand-in: 250 networks") {
		t.Errorf("zoo output wrong:\n%s", out.String())
	}
}

func TestStatsErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("no args should error")
	}
	if err := run([]string{"/nonexistent/net.json"}, &out); err == nil {
		t.Error("missing file should error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if err := run([]string{bad}, &out); err == nil {
		t.Error("corrupt file should error")
	}
}
