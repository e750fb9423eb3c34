package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.NumEdges() != 0 {
		t.Fatalf("New(5): n=%d edges=%d", g.N(), g.NumEdges())
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if g.HasEdge(i, j) {
				t.Fatalf("empty graph has edge (%d,%d)", i, j)
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestAddRemoveEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	g.AddEdge(0, 1) // duplicate
	g.AddEdge(1, 0) // duplicate reversed
	if g.NumEdges() != 1 {
		t.Fatalf("duplicate add changed count: %d", g.NumEdges())
	}
	g.AddEdge(2, 2) // self loop no-op
	if g.NumEdges() != 1 || g.HasEdge(2, 2) {
		t.Fatal("self loop should be ignored")
	}
	g.RemoveEdge(1, 0)
	if g.HasEdge(0, 1) || g.NumEdges() != 0 {
		t.Fatal("remove failed")
	}
	g.RemoveEdge(0, 1) // double remove no-op
	if g.NumEdges() != 0 {
		t.Fatal("double remove corrupted count")
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	g := New(3)
	defer func() {
		if recover() == nil {
			t.Error("out of range AddEdge should panic")
		}
	}()
	g.AddEdge(0, 3)
}

func TestSetEdge(t *testing.T) {
	g := New(3)
	g.SetEdge(0, 2, true)
	if !g.HasEdge(0, 2) {
		t.Fatal("SetEdge true failed")
	}
	g.SetEdge(0, 2, false)
	if g.HasEdge(0, 2) {
		t.Fatal("SetEdge false failed")
	}
}

func TestComplete(t *testing.T) {
	g := Complete(6)
	want := 6 * 5 / 2
	if g.NumEdges() != want {
		t.Fatalf("K6 edges = %d, want %d", g.NumEdges(), want)
	}
	for i := 0; i < 6; i++ {
		if g.Degree(i) != 5 {
			t.Fatalf("K6 degree(%d) = %d", i, g.Degree(i))
		}
	}
	if !g.IsConnected() {
		t.Fatal("K6 must be connected")
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3 (duplicate collapsed)", g.NumEdges())
	}
	if _, err := FromEdges(3, [][2]int{{0, 0}}); err == nil {
		t.Error("self loop should error")
	}
	if _, err := FromEdges(3, [][2]int{{0, 5}}); err == nil {
		t.Error("out of range should error")
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g, _ := FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 4}, {3, 4}})
	if g.Degree(0) != 3 || g.Degree(3) != 1 || g.Degree(4) != 2 {
		t.Fatalf("degrees wrong: %v", g.Degrees())
	}
	nb := g.Neighbors(0, nil)
	if len(nb) != 3 || nb[0] != 1 || nb[1] != 2 || nb[2] != 4 {
		t.Fatalf("Neighbors(0) = %v", nb)
	}
	var visited []int
	g.EachNeighbor(4, func(j int) { visited = append(visited, j) })
	if len(visited) != 2 || visited[0] != 0 || visited[1] != 3 {
		t.Fatalf("EachNeighbor(4) = %v", visited)
	}
}

func TestNeighborsAcrossWordBoundary(t *testing.T) {
	// Nodes past index 63 exercise the multi-word bitset rows.
	g := New(130)
	g.AddEdge(0, 63)
	g.AddEdge(0, 64)
	g.AddEdge(0, 129)
	nb := g.Neighbors(0, nil)
	if len(nb) != 3 || nb[0] != 63 || nb[1] != 64 || nb[2] != 129 {
		t.Fatalf("Neighbors across words = %v", nb)
	}
	if g.Degree(0) != 3 || g.Degree(129) != 1 {
		t.Fatal("degrees across words wrong")
	}
}

func TestEdges(t *testing.T) {
	g, _ := FromEdges(4, [][2]int{{2, 3}, {0, 1}, {1, 3}})
	es := g.Edges()
	want := []Edge{{0, 1}, {1, 3}, {2, 3}}
	if len(es) != len(want) {
		t.Fatalf("Edges = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges[%d] = %v, want %v", i, es[i], want[i])
		}
	}
	prefix := []Edge{{-1, -1}}
	if got := g.AppendEdges(prefix); !slices.Equal(got, append(prefix, want...)) {
		t.Fatalf("AppendEdges = %v, want the edges after the prefix", got)
	}
}

func TestCloneEqual(t *testing.T) {
	g, _ := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	c := g.Clone()
	if !g.Equal(c) || !c.Equal(g) {
		t.Fatal("clone not equal")
	}
	c.AddEdge(0, 4)
	if g.Equal(c) {
		t.Fatal("mutating clone affected original or Equal is broken")
	}
	if g.HasEdge(0, 4) {
		t.Fatal("clone shares storage with original")
	}
}

func TestEqualDifferentSizes(t *testing.T) {
	if New(3).Equal(New(4)) {
		t.Error("graphs of different order must not be equal")
	}
}

// TestAppendUpperMatchesEqual: at a fixed node count, two graphs have
// equal packed upper triangles exactly when Equal holds. The sizes put row
// ends and 64-bit word boundaries in different places: n=11 packs 55 bits
// into one word, n=12 spills row 5 across the first word boundary, n=64
// and n=65 fill rows up to and past one bitset word, n=129 spans three.
func TestAppendUpperMatchesEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 11, 12, 64, 65, 129} {
		words := (n*(n-1)/2 + 63) / 64
		for trial := 0; trial < 40; trial++ {
			g := randomGraph(rng, n, 0.3)
			h := g.Clone()
			if trial%2 == 1 {
				// Flip one pair, chosen to land anywhere in the packed
				// stream, including its first and last bits.
				i, j := 0, 1
				switch trial % 6 {
				case 1:
					i, j = n-2, n-1
				case 3:
					i = rng.Intn(n - 1)
					j = i + 1 + rng.Intn(n-1-i)
				}
				h.SetEdge(i, j, !h.HasEdge(i, j))
			}
			pg, ph := g.AppendUpper(nil), h.AppendUpper([]uint64{42})[1:]
			if len(pg) != words || len(ph) != words {
				t.Fatalf("n=%d: packed lengths %d and %d, want %d", n, len(pg), len(ph), words)
			}
			if slices.Equal(pg, ph) != g.Equal(h) {
				t.Fatalf("n=%d trial %d: packed equality %v, Equal %v", n, trial, slices.Equal(pg, ph), g.Equal(h))
			}
			if got := popcountWords(pg); got != g.NumEdges() {
				t.Fatalf("n=%d: packed form holds %d bits, graph has %d edges", n, got, g.NumEdges())
			}
		}
	}
}

func popcountWords(ws []uint64) int {
	c := 0
	for _, w := range ws {
		c += popcount(w)
	}
	return c
}

func TestCopyFromAndClear(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g, h := randomGraph(rng, 70, 0.2), randomGraph(rng, 70, 0.2)
	g.CopyFrom(h)
	if !g.Equal(h) {
		t.Fatal("CopyFrom did not copy")
	}
	h.AddEdge(0, 69)
	h.RemoveEdge(0, 69)
	g.Clear()
	if g.NumEdges() != 0 || !g.Equal(New(70)) {
		t.Fatal("Clear left edges behind")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom across node counts must panic")
		}
	}()
	g.CopyFrom(New(69))
}

// TestBlendUpperRowMatchesPerLink: blending every row from two parents
// under random masks, then mirroring, builds the graph a per-link copy
// builds, into storage that held an unrelated graph (dirty lower triangle
// and all). The sizes put row ends and word boundaries in different
// places.
func TestBlendUpperRowMatchesPerLink(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 3, 63, 64, 65, 129} {
		words := (n + 63) / 64
		for trial := 0; trial < 10; trial++ {
			a, b := randomGraph(rng, n, 0.3), randomGraph(rng, n, 0.5)
			g, want := Complete(n), New(n)
			mask := make([]uint64, words)
			for i := 0; i < n; i++ {
				for k := range mask {
					mask[k] = rng.Uint64()
				}
				for j := i + 1; j < n; j++ {
					from := b
					if mask[j/64]&(1<<(uint(j)%64)) != 0 {
						from = a
					}
					want.SetEdge(i, j, from.HasEdge(i, j))
				}
				g.BlendUpperRow(i, a, b, mask)
			}
			g.MirrorUpper()
			if !g.Equal(want) || g.NumEdges() != want.NumEdges() {
				t.Fatalf("n=%d trial %d: blended %v, want %v", n, trial, g, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BlendUpperRow across node counts must panic")
		}
	}()
	New(5).BlendUpperRow(0, New(5), New(4), make([]uint64, 1))
}

func TestCoreNodesAndLeaves(t *testing.T) {
	// Star on 5 nodes: center 0 is the only core node.
	g, _ := FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	core := g.CoreNodes()
	if len(core) != 1 || core[0] != 0 {
		t.Fatalf("CoreNodes = %v, want [0]", core)
	}
	for i := 1; i < 5; i++ {
		if !g.IsLeaf(i) {
			t.Errorf("node %d should be a leaf", i)
		}
	}
	if g.IsLeaf(0) {
		t.Error("hub should not be a leaf")
	}
}

func TestComponents(t *testing.T) {
	g, _ := FromEdges(7, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("components = %v, want 4 comps", comps)
	}
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 2 {
		t.Fatalf("component sizes wrong: %v", comps)
	}
}

func TestIsConnected(t *testing.T) {
	if !New(0).IsConnected() || !New(1).IsConnected() {
		t.Error("trivial graphs are connected")
	}
	if New(2).IsConnected() {
		t.Error("two isolated nodes are not connected")
	}
	path, _ := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if !path.IsConnected() {
		t.Error("path should be connected")
	}
	path.RemoveEdge(1, 2)
	if path.IsConnected() {
		t.Error("broken path should be disconnected")
	}
}

// TestIsConnectedMatchesComponents: the bitset flood fill agrees with
// the component search on random graphs either side of the connectivity
// threshold, at sizes around each 64-node word boundary and past the
// stack-held bitset.
func TestIsConnectedMatchesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 64*stackWords + 1} {
		for _, scale := range []float64{0, 0.5, 1, 1.5, 3} {
			p := 1.0
			if n > 1 {
				p = math.Min(1, scale*math.Log(float64(n))/float64(n))
			}
			for trial := 0; trial < 10; trial++ {
				g := randomGraph(rng, n, p)
				if got, want := g.IsConnected(), len(g.Components()) <= 1; got != want {
					t.Fatalf("n=%d p=%.3f: IsConnected = %v, components say %v", n, p, got, want)
				}
			}
		}
	}
}

func TestBFSHops(t *testing.T) {
	g, _ := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	d := g.BFSHops(0)
	want := []int{0, 1, 2, 3, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("BFSHops = %v, want %v", d, want)
		}
	}
}

func TestMSTLine(t *testing.T) {
	// Three collinear points: MST must be the path, not include the long
	// edge.
	w := [][]float64{
		{0, 1, 2},
		{1, 0, 1},
		{2, 1, 0},
	}
	tr := MST(3, w)
	if tr.NumEdges() != 2 || !tr.HasEdge(0, 1) || !tr.HasEdge(1, 2) || tr.HasEdge(0, 2) {
		t.Fatalf("MST wrong: %v", tr)
	}
}

func TestMSTProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		w := randomMetric(rng, n)
		tr := MST(n, w)
		if tr.NumEdges() != n-1 {
			t.Fatalf("MST on %d nodes has %d edges", n, tr.NumEdges())
		}
		if !tr.IsConnected() {
			t.Fatalf("MST disconnected for n=%d", n)
		}
	}
}

func TestMSTIsMinimal(t *testing.T) {
	// Compare against brute force over all spanning trees for a small n by
	// checking that no single edge swap improves total weight.
	rng := rand.New(rand.NewSource(5))
	n := 8
	w := randomMetric(rng, n)
	tr := MST(n, w)
	base := treeWeight(tr, w)
	for _, e := range tr.Edges() {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if tr.HasEdge(i, j) {
					continue
				}
				alt := tr.Clone()
				alt.RemoveEdge(e.I, e.J)
				alt.AddEdge(i, j)
				if alt.IsConnected() && treeWeight(alt, w) < base-1e-12 {
					t.Fatalf("edge swap improved MST: remove (%d,%d), add (%d,%d)", e.I, e.J, i, j)
				}
			}
		}
	}
}

func TestMSTTrivial(t *testing.T) {
	if g := MST(0, nil); g.N() != 0 || g.NumEdges() != 0 {
		t.Error("MST(0) should be empty")
	}
	if g := MST(1, [][]float64{{0}}); g.NumEdges() != 0 {
		t.Error("MST(1) should have no edges")
	}
}

func TestConnect(t *testing.T) {
	// Two components; repair must add exactly one link, the shortest
	// cross-component one.
	g, _ := FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	dist := [][]float64{
		{0, 1, 10, 20},
		{1, 0, 2, 30},
		{10, 2, 0, 1},
		{20, 30, 1, 0},
	}
	added := g.Connect(dist)
	if added != 1 {
		t.Fatalf("added = %d, want 1", added)
	}
	if !g.HasEdge(1, 2) {
		t.Fatalf("should add shortest cross link (1,2): %v", g)
	}
	if !g.IsConnected() {
		t.Fatal("not connected after repair")
	}
}

func TestConnectAlreadyConnected(t *testing.T) {
	g, _ := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if added := g.Connect(randomMetric(rand.New(rand.NewSource(1)), 3)); added != 0 {
		t.Fatalf("repairing connected graph added %d links", added)
	}
}

// TestConnectConnectedAllocatesNothing: the repair step runs on every
// GA offspring, most of which are already connected; the rest are
// disconnected, and joining them must not allocate either.
func TestConnectConnectedAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{30, 128} {
		dist := randomMetric(rng, n)
		g := MST(n, dist)
		if allocs := testing.AllocsPerRun(100, func() { g.Connect(dist) }); allocs != 0 {
			t.Errorf("n=%d: Connect on a connected graph made %v allocations", n, allocs)
		}
		sparse := randomGraph(rng, n, 1.0/float64(n))
		work := New(n)
		if allocs := testing.AllocsPerRun(100, func() {
			work.CopyFrom(sparse)
			work.Connect(dist)
		}); allocs != 0 {
			t.Errorf("n=%d: Connect on a disconnected graph made %v allocations", n, allocs)
		}
		if !work.IsConnected() || len(sparse.Components()) < 2 {
			t.Fatalf("n=%d: the disconnected case did not exercise a repair", n)
		}
	}
}

// referenceComponents and referenceConnect are the component listing and
// repair step as first written: a stack walk collecting [][]int, the full
// k×k matrix of shortest cross links, then MST over that matrix. Connect
// must add exactly the links they add.
func referenceComponents(g *Graph) [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			g.EachNeighbor(v, func(u int) {
				if !seen[u] {
					seen[u] = true
					comp = append(comp, u)
					queue = append(queue, u)
				}
			})
		}
		comps = append(comps, comp)
	}
	return comps
}

func referenceConnect(g *Graph, dist [][]float64) int {
	if g.IsConnected() {
		return 0
	}
	comps := referenceComponents(g)
	k := len(comps)
	bestW := make([][]float64, k)
	bestL := make([][][2]int, k)
	for i := range bestW {
		bestW[i] = make([]float64, k)
		bestL[i] = make([][2]int, k)
		for j := range bestW[i] {
			bestW[i][j] = math.Inf(1)
		}
	}
	for ci := 0; ci < k; ci++ {
		for cj := ci + 1; cj < k; cj++ {
			for _, a := range comps[ci] {
				for _, b := range comps[cj] {
					if d := dist[a][b]; d < bestW[ci][cj] {
						bestW[ci][cj], bestW[cj][ci] = d, d
						bestL[ci][cj], bestL[cj][ci] = [2]int{a, b}, [2]int{a, b}
					}
				}
			}
		}
	}
	added := 0
	for _, e := range MST(k, bestW).Edges() {
		l := bestL[e.I][e.J]
		g.AddEdge(l[0], l[1])
		added++
	}
	return added
}

// TestConnectMatchesReference pins Connect to the reference repair on
// random sparse graphs, under both generic distances and a coarse integer
// grid metric where equal cross-link lengths are common, so the strict-<
// tie rule and the component order decide which links are added.
func TestConnectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(80)
		if trial%50 == 0 {
			n = connectStack + 1 + rng.Intn(20) // the heap-scratch path
		}
		g := randomGraph(rng, n, rng.Float64()*2.5/float64(n))
		if !slices.EqualFunc(g.Components(), referenceComponents(g), slices.Equal[[]int]) {
			t.Fatalf("trial %d: Components differs from the reference walk", trial)
		}
		dist := randomMetric(rng, n)
		if trial%2 == 1 {
			for i := range dist {
				for j := range dist[i] {
					dist[i][j] = math.Round(dist[i][j] * 4)
				}
			}
		}
		want := g.Clone()
		wantAdded := referenceConnect(want, dist)
		if added := g.Connect(dist); added != wantAdded || !g.Equal(want) {
			t.Fatalf("trial %d n=%d: Connect added %d links %v, reference %d links %v",
				trial, n, added, g, wantAdded, want)
		}
	}
}

func TestConnectAlwaysConnects(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, 0.08)
		dist := randomMetric(rng, n)
		comps := len(g.Components())
		added := g.Connect(dist)
		if !g.IsConnected() {
			t.Fatalf("Connect failed to connect (n=%d)", n)
		}
		if added != comps-1 {
			t.Fatalf("Connect added %d links for %d components", added, comps)
		}
	}
}

func TestPermutePreservesStructure(t *testing.T) {
	g, _ := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	perm := []int{4, 3, 2, 1, 0}
	h := g.Permute(perm)
	if h.NumEdges() != g.NumEdges() {
		t.Fatal("permute changed edge count")
	}
	if !h.HasEdge(4, 3) || !h.HasEdge(1, 0) {
		t.Fatalf("permuted edges wrong: %v", h)
	}
	// Degree multiset preserved.
	dg, dh := g.Degrees(), h.Degrees()
	if sum(dg) != sum(dh) {
		t.Fatal("degree sum changed under permutation")
	}
}

func TestString(t *testing.T) {
	g, _ := FromEdges(3, [][2]int{{0, 1}})
	if got := g.String(); got != "n=3 edges=[(0,1)]" {
		t.Errorf("String() = %q", got)
	}
}

// Property: for random graphs, handshake lemma holds and neighbor lists are
// consistent with HasEdge.
func TestQuickHandshake(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		g := randomGraph(r, n, 0.2)
		if sum(g.Degrees()) != 2*g.NumEdges() {
			return false
		}
		for i := 0; i < n; i++ {
			for _, j := range g.Neighbors(i, nil) {
				if !g.HasEdge(i, j) || !g.HasEdge(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Components partition the node set.
func TestQuickComponentsPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		g := randomGraph(r, n, 0.1)
		seen := make([]bool, n)
		total := 0
		for _, c := range g.Components() {
			for _, v := range c {
				if seen[v] {
					return false
				}
				seen[v] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- helpers ---

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func randomMetric(rng *rand.Rand, n int) [][]float64 {
	// Distances from random points: guaranteed to satisfy the triangle
	// inequality, like the paper's contexts.
	type pt struct{ x, y float64 }
	pts := make([]pt, n)
	for i := range pts {
		pts[i] = pt{rng.Float64(), rng.Float64()}
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			dx, dy := pts[i].x-pts[j].x, pts[i].y-pts[j].y
			d[i][j] = math.Sqrt(dx*dx + dy*dy)
		}
	}
	return d
}

func treeWeight(g *Graph, w [][]float64) float64 {
	var total float64
	for _, e := range g.Edges() {
		total += w[e.I][e.J]
	}
	return total
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func TestConnectIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(20)
		g := randomGraph(rng, n, 0.1)
		dist := randomMetric(rng, n)
		g.Connect(dist)
		snapshot := g.Clone()
		if added := g.Connect(dist); added != 0 {
			t.Fatalf("second Connect added %d links", added)
		}
		if !g.Equal(snapshot) {
			t.Fatal("second Connect mutated the graph")
		}
	}
}

func TestPermuteComposition(t *testing.T) {
	// Permuting by p then by its inverse returns the original graph.
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(20)
		g := randomGraph(rng, n, 0.3)
		perm := rng.Perm(n)
		inv := make([]int, n)
		for i, v := range perm {
			inv[v] = i
		}
		if !g.Permute(perm).Permute(inv).Equal(g) {
			t.Fatal("permute ∘ inverse != identity")
		}
	}
}

func TestPermuteIdentity(t *testing.T) {
	g, _ := FromEdges(5, [][2]int{{0, 1}, {2, 4}})
	id := []int{0, 1, 2, 3, 4}
	if !g.Permute(id).Equal(g) {
		t.Error("identity permutation changed the graph")
	}
}

func TestBFSHopsSelf(t *testing.T) {
	g := Complete(4)
	d := g.BFSHops(2)
	if d[2] != 0 {
		t.Errorf("distance to self = %d", d[2])
	}
	for i := 0; i < 4; i++ {
		if i != 2 && d[i] != 1 {
			t.Errorf("K4 hop distance = %d", d[i])
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, 0.2)
		pairs := make([][2]int, 0, g.NumEdges())
		for _, e := range g.Edges() {
			pairs = append(pairs, [2]int{e.I, e.J})
		}
		h, err := FromEdges(n, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(h) {
			t.Fatal("Edges -> FromEdges round trip failed")
		}
	}
}

// TestAppendCSR: the CSR view must list exactly EachNeighbor's visits — same
// rows, same ascending order — reuse a passed buffer without reallocating
// when capacity suffices, and enforce the rowStart length contract.
func TestAppendCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var cols []int32
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		g := randomGraph(rng, n, []float64{0.05, 0.3, 0.9}[trial%3])
		rowStart := make([]int32, n+1)
		cols = g.AppendCSR(rowStart, cols[:0])
		if len(cols) != 2*g.NumEdges() {
			t.Fatalf("n=%d: %d CSR slots, want %d", n, len(cols), 2*g.NumEdges())
		}
		if rowStart[0] != 0 || rowStart[n] != int32(len(cols)) {
			t.Fatalf("rowStart bounds = %d..%d, want 0..%d", rowStart[0], rowStart[n], len(cols))
		}
		for i := 0; i < n; i++ {
			var want []int32
			g.EachNeighbor(i, func(j int) { want = append(want, int32(j)) })
			got := cols[rowStart[i]:rowStart[i+1]]
			if len(got) != len(want) {
				t.Fatalf("row %d: %d cols, want %d", i, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("row %d slot %d: col %d, want %d", i, k, got[k], want[k])
				}
			}
		}
	}
}

func TestAppendCSRReuseAndPanic(t *testing.T) {
	g := Complete(6)
	rowStart := make([]int32, 7)
	cols := g.AppendCSR(rowStart, nil)
	again := g.AppendCSR(rowStart, cols[:0])
	if &again[0] != &cols[0] {
		t.Fatal("AppendCSR reallocated despite sufficient capacity")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short rowStart should panic")
		}
	}()
	g.AppendCSR(make([]int32, 3), nil)
}
