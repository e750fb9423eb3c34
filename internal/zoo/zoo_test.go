package zoo

import (
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/metrics"
	"github.com/networksynth/cold/internal/stats"
)

func TestDefaultEnsembleDeterministic(t *testing.T) {
	a := DefaultEnsemble()
	b := DefaultEnsemble()
	if len(a) != DefaultSize || len(b) != DefaultSize {
		t.Fatalf("sizes %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || !a[i].Graph.Equal(b[i].Graph) {
			t.Fatalf("ensemble not deterministic at %d", i)
		}
	}
}

func TestAllConnected(t *testing.T) {
	for i, n := range DefaultEnsemble() {
		if !n.Graph.IsConnected() {
			t.Fatalf("network %d (%s) disconnected", i, n.Name)
		}
		if n.Graph.N() < 5 {
			t.Fatalf("network %d (%s) too small: %d", i, n.Name, n.Graph.N())
		}
	}
}

// TestCalibrationCVND verifies the substitution targets from the paper:
// about 15% of Zoo networks have CVND over 1, with the maximum near 2.
func TestCalibrationCVND(t *testing.T) {
	cvs := CVNDs(DefaultEnsemble())
	frac := stats.FractionAbove(cvs, 1)
	if frac < 0.08 || frac > 0.25 {
		t.Errorf("fraction CVND > 1 = %v, want ~0.15", frac)
	}
	_, max := stats.MinMax(cvs)
	if max < 1.5 || max > 2.6 {
		t.Errorf("max CVND = %v, want ~2", max)
	}
}

// TestCalibrationClustering verifies: 90% of GCCs below 0.25, and the high
// ones belong to very small networks.
func TestCalibrationClustering(t *testing.T) {
	nets := DefaultEnsemble()
	gccs := Clusterings(nets)
	frac := stats.FractionAbove(gccs, 0.25)
	if frac > 0.15 {
		t.Errorf("fraction GCC > 0.25 = %v, want <= ~0.10", frac)
	}
	for i, c := range gccs {
		if c > 0.4 && nets[i].Graph.N() > 12 {
			t.Errorf("network %d (%s, n=%d) has GCC %v: high clustering should be small networks only",
				i, nets[i].Name, nets[i].Graph.N(), c)
		}
	}
}

func TestArchetypes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if g := Star(10); metrics.NumHubs(g) != 1 || g.NumEdges() != 9 {
		t.Error("Star malformed")
	}
	if g := Ring(8); metrics.DegreeCV(g) != 0 || g.NumEdges() != 8 {
		t.Error("Ring malformed")
	}
	if g := RandomTree(20, rng); g.NumEdges() != 19 || !g.IsConnected() {
		t.Error("RandomTree malformed")
	}
	if g := DoubleStar(15, rng); metrics.NumHubs(g) > 2 || !g.IsConnected() {
		t.Error("DoubleStar malformed")
	}
	g := RingWithChords(10, 3, rng)
	if g.NumEdges() != 13 || !g.IsConnected() {
		t.Error("RingWithChords malformed")
	}
	pm := PartialMesh(20, 2.8, rng)
	if !pm.IsConnected() {
		t.Error("PartialMesh disconnected")
	}
	if ad := metrics.AverageDegree(pm); ad < 2.5 || ad > 3.1 {
		t.Errorf("PartialMesh avg degree = %v, want ~2.8", ad)
	}
	d := Dense(6, rng)
	if !d.IsConnected() {
		t.Error("Dense disconnected")
	}
}

// TestArchetypeBoundaries: infeasible chord/degree requests clamp to the
// complete graph instead of rejection-sampling forever (these calls hung
// before addRandomAbsent).
func TestArchetypeBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if g := RingWithChords(4, 10, rng); g.NumEdges() != 6 {
		t.Errorf("RingWithChords(4, 10) has %d edges, want the complete graph's 6", g.NumEdges())
	}
	if g := RingWithChords(3, 5, rng); g.NumEdges() != 3 {
		t.Errorf("RingWithChords(3, 5) has %d edges, want 3 (ring already complete)", g.NumEdges())
	}
	if g := RingWithChords(5, 0, rng); g.NumEdges() != 5 {
		t.Errorf("RingWithChords(5, 0) has %d edges, want the bare ring's 5", g.NumEdges())
	}
	if g := PartialMesh(5, 100, rng); g.NumEdges() != 10 {
		t.Errorf("PartialMesh(5, 100) has %d edges, want the complete graph's 10", g.NumEdges())
	}
	if g := PartialMesh(6, 0.1, rng); g.NumEdges() != 5 || !g.IsConnected() {
		t.Errorf("PartialMesh(6, 0.1) has %d edges, want the tree backbone's 5", g.NumEdges())
	}
	// Exact feasible requests land exactly, with every pair distinct.
	if g := RingWithChords(6, 9, rng); g.NumEdges() != 15 {
		t.Errorf("RingWithChords(6, 9) has %d edges, want 15", g.NumEdges())
	}
}

func TestEnsembleSizeZero(t *testing.T) {
	if nets := Ensemble(0, rand.New(rand.NewSource(1))); len(nets) != 0 {
		t.Error("empty ensemble mishandled")
	}
}
