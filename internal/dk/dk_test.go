package dk

import (
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/randgraph"
)

func mustGraph(t *testing.T, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func ring(t *testing.T, n int) *graph.Graph {
	t.Helper()
	var es [][2]int
	for i := 0; i < n; i++ {
		es = append(es, [2]int{i, (i + 1) % n})
	}
	return mustGraph(t, n, es)
}

func TestDistribution1K(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	d := Distribution1K(g)
	if d[3] != 1 || d[1] != 3 || len(d) != 2 {
		t.Errorf("1K = %v", d)
	}
}

func TestJointDegree2K(t *testing.T) {
	// Path on 3: edges with degree pairs (1,2) and (1,2).
	g := mustGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	jd := JointDegree2K(g)
	if len(jd) != 1 || jd[[2]int{1, 2}] != 2 {
		t.Errorf("2K = %v", jd)
	}
}

func TestProfile3KTriangle(t *testing.T) {
	g := graph.Complete(3)
	p := Profile3K(g)
	key := TriadKey{Triangle: true, D: [3]int{2, 2, 2}}
	if len(p) != 1 || p[key] != 1 {
		t.Errorf("3K of K3 = %v", p)
	}
}

func TestProfile3KWedge(t *testing.T) {
	// Path on 3: one wedge, center degree 2, ends degree 1.
	g := mustGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	p := Profile3K(g)
	key := TriadKey{D: [3]int{2, 1, 1}}
	if len(p) != 1 || p[key] != 1 {
		t.Errorf("3K of path = %v", p)
	}
}

func TestProfile3KStar(t *testing.T) {
	// Star on 5: C(4,2)=6 wedges centered on the hub (degree 4), ends
	// degree 1.
	g := mustGraph(t, 5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	p := Profile3K(g)
	key := TriadKey{D: [3]int{4, 1, 1}}
	if len(p) != 1 || p[key] != 6 {
		t.Errorf("3K of star = %v", p)
	}
}

func TestProfile3KCountsConsistent(t *testing.T) {
	// Total triads (wedges + triangles, induced) on K4: every triple is a
	// triangle → 4 triangles, 0 wedges.
	p := Profile3K(graph.Complete(4))
	total := 0
	for k, v := range p {
		if !k.Triangle {
			t.Errorf("K4 has induced wedge %v", k)
		}
		total += v
	}
	if total != 4 {
		t.Errorf("K4 triads = %d", total)
	}
}

func TestEqualDKInvariantUnderIsomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := randgraph.ER(9, 0.35, rng)
		perm := rng.Perm(9)
		h := g.Permute(perm)
		if !Equal1K(g, h) || !Equal2K(g, h) || !Equal3K(g, h) {
			t.Fatalf("dK distributions changed under relabeling (trial %d)", trial)
		}
	}
}

func TestEqual3KDistinguishes(t *testing.T) {
	// Ring C6 vs two triangles: same degree sequence (all 2), different
	// triad structure.
	c6 := ring(t, 6)
	twoTri := mustGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	if !Equal1K(c6, twoTri) {
		t.Fatal("C6 and 2×K3 share the degree sequence")
	}
	if Equal3K(c6, twoTri) {
		t.Error("3K should distinguish C6 from two triangles")
	}
}

func TestCountDistinctSubgraphs(t *testing.T) {
	// Ring: all nodes degree 2 → one distinct subgraph class per d.
	c8 := ring(t, 8)
	for d := 2; d <= 4; d++ {
		got, err := CountDistinctSubgraphs(c8, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Errorf("ring distinct d=%d subgraphs = %d, want 1", d, got)
		}
	}
	if _, err := CountDistinctSubgraphs(c8, 5); err == nil {
		t.Error("d=5 should error")
	}
	if _, err := CountDistinctSubgraphs(c8, 1); err == nil {
		t.Error("d=1 should error")
	}
}

func TestCountDistinct4Shapes(t *testing.T) {
	// K4: single class (complete, all labels 3).
	got, err := CountDistinctSubgraphs(graph.Complete(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("K4 distinct 4-subgraphs = %d", got)
	}
	// Path on 4 nodes: exactly one connected induced 4-node subgraph (the
	// path itself).
	p4 := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	got, err = CountDistinctSubgraphs(p4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("P4 distinct 4-subgraphs = %d", got)
	}
}

func TestCountDistinctGrowsWithD(t *testing.T) {
	// The paper's Figure 1 point: parameters explode with d. For an ER
	// graph, distinct counts are non-decreasing from d=2 to d=4 and
	// usually sharply increasing.
	rng := rand.New(rand.NewSource(7))
	g := randgraph.ER(30, 0.2, rng)
	c2, _ := CountDistinctSubgraphs(g, 2)
	c3, _ := CountDistinctSubgraphs(g, 3)
	c4, _ := CountDistinctSubgraphs(g, 4)
	if !(c2 <= c3 && c3 <= c4) {
		t.Errorf("distinct counts not increasing: %d, %d, %d", c2, c3, c4)
	}
	if c4 < 5*c2 {
		t.Errorf("d=4 count %d should dwarf d=2 count %d for ER(30, .2)", c4, c2)
	}
}

func TestIsomorphic(t *testing.T) {
	g := ring(t, 6)
	h := g.Permute([]int{3, 1, 4, 0, 5, 2})
	if !Isomorphic(g, h) {
		t.Error("permuted ring should be isomorphic")
	}
	// C6 vs two triangles: not isomorphic despite equal degree sequence.
	twoTri := mustGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	if Isomorphic(g, twoTri) {
		t.Error("C6 is not isomorphic to 2×K3")
	}
	if Isomorphic(g, ring(t, 5)) {
		t.Error("different orders cannot be isomorphic")
	}
	p := mustGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	q := mustGraph(t, 3, [][2]int{{0, 2}, {2, 1}})
	if !Isomorphic(p, q) {
		t.Error("relabeled path should be isomorphic")
	}
}

func TestIsomorphicPanicsLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("large Isomorphic should panic")
		}
	}()
	Isomorphic(graph.New(11), graph.New(11))
}

func TestSearch3KMatchesRingIsRigid(t *testing.T) {
	// The paper: "both cliques and rings" are fully determined by their
	// dK-distribution. Every 3K match of C6 must be isomorphic to C6.
	res, err := Search3KMatches(ring(t, 6), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("search found no matches; the input itself must match")
	}
	if !res.AllIsomorphic {
		t.Error("C6's 3K matches include a non-isomorphic graph")
	}
	if res.GraphsSearched == 0 {
		t.Error("searched count not tracked")
	}
}

func TestSearch3KMatchesPaperExample(t *testing.T) {
	// A small asymmetric network akin to Figure 2(a): hub with leaves and
	// a cycle. Its 3K should pin it down to isomorphic copies only.
	g := mustGraph(t, 7, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {2, 5}, {5, 6}})
	res, err := Search3KMatches(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("no matches found")
	}
	if !res.AllIsomorphic {
		t.Errorf("expected all %d matches isomorphic to the input", len(res.Matches))
	}
}

func TestSearch3KLimit(t *testing.T) {
	res, err := Search3KMatches(ring(t, 5), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) > 2 {
		t.Errorf("limit ignored: %d matches", len(res.Matches))
	}
}

func TestSearch3KRejectsLarge(t *testing.T) {
	if _, err := Search3KMatches(graph.New(9), 0); err == nil {
		t.Error("search should reject n=9")
	}
}

func TestTriadKeyString(t *testing.T) {
	if s := (TriadKey{Triangle: true, D: [3]int{1, 2, 3}}).String(); s != "tri(1,2,3)" {
		t.Errorf("String = %q", s)
	}
	if s := (TriadKey{D: [3]int{4, 1, 2}}).String(); s != "wedge(center=4 ends=1,2)" {
		t.Errorf("String = %q", s)
	}
}
