package cost

// Known-answer routing tests: small named weighted graphs whose shortest
// paths are unique, with the routes, per-link capacities and cost worked
// out by hand. Unlike the equivalence suite, which compares the heap
// kernel with the linear-scan reference, these pin both to an answer that
// does not come from the evaluator.

import (
	"math"
	"slices"
	"testing"

	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

// knownParams keeps every hand-computed cost exact in binary floating
// point: integer lengths and demands, and k2 = 1/2.
var knownParams = Params{K0: 10, K1: 1, K2: 0.5, K3: 4}

// knownLink is one link of a known-answer graph: its length (input) and
// the capacity shortest-path routing must give it (expected).
type knownLink struct {
	a, b     int
	length   float64
	capacity float64
}

// knownGraph is one known-answer case. demand lists each unordered pair's
// demand once (absent pairs have none); paths maps an ordered (s, d) to the
// unique shortest route; cores and total are the expected hub count and
// objective value (+Inf for a disconnected graph, which has no
// capacities).
type knownGraph struct {
	name   string
	n      int
	links  []knownLink
	demand map[[2]int]float64
	paths  map[[2]int][]int
	cores  int
	total  float64
}

// unitDemand gives every unordered pair of n PoPs a demand of 1.
func unitDemand(n int) map[[2]int]float64 {
	d := make(map[[2]int]float64)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d[[2]int{i, j}] = 1
		}
	}
	return d
}

var knownGraphs = []knownGraph{
	{
		// 0 -1- 1 -2- 2 -3- 3: every route runs along the line.
		name: "path4",
		n:    4,
		links: []knownLink{
			{0, 1, 1, 3}, // {0,1} {0,2} {0,3}
			{1, 2, 2, 4}, // {0,2} {0,3} {1,2} {1,3}
			{2, 3, 3, 3}, // {0,3} {1,3} {2,3}
		},
		demand: unitDemand(4),
		paths: map[[2]int][]int{
			{0, 3}: {0, 1, 2, 3},
			{3, 0}: {3, 2, 1, 0},
			{1, 2}: {1, 2},
		},
		cores: 2,
		// (10+1+0.5·1·3) + (10+2+0.5·2·4) + (10+3+0.5·3·3) + 4·2
		total: 12.5 + 16 + 17.5 + 8,
	},
	{
		// The direct 0–2 link (5) is longer than the detour via 1 (2), so
		// it carries nothing.
		name: "triangle-detour",
		n:    3,
		links: []knownLink{
			{0, 1, 1, 5}, // {0,1}=2 + {0,2}=3
			{0, 2, 5, 0},
			{1, 2, 1, 7}, // {1,2}=4 + {0,2}=3
		},
		demand: map[[2]int]float64{{0, 1}: 2, {0, 2}: 3, {1, 2}: 4},
		paths: map[[2]int][]int{
			{0, 2}: {0, 1, 2},
			{2, 0}: {2, 1, 0},
			{0, 1}: {0, 1},
		},
		cores: 3,
		// (10+1+0.5·1·5) + (10+5) + (10+1+0.5·1·7) + 4·3
		total: 13.5 + 15 + 14.5 + 12,
	},
	{
		// Hub 0 with four leaves: every leaf link carries the four pairs
		// that include its leaf.
		name: "star5",
		n:    5,
		links: []knownLink{
			{0, 1, 1, 4},
			{0, 2, 2, 4},
			{0, 3, 3, 4},
			{0, 4, 4, 4},
		},
		demand: unitDemand(5),
		paths: map[[2]int][]int{
			{1, 4}: {1, 0, 4},
			{3, 2}: {3, 0, 2},
			{0, 4}: {0, 4},
		},
		cores: 1,
		// Σ (10 + ℓ + 0.5·ℓ·4) over ℓ = 1..4, + 4·1
		total: 40 + 3*(1+2+3+4) + 4,
	},
	{
		// Ring 0-1-2-3-0 with a long closing link 3–0 (4) and a chord 0–2
		// (3): both lose to the unit-length path 0-1-2-3.
		name: "ring-with-chord",
		n:    4,
		links: []knownLink{
			{0, 1, 1, 6}, // {0,1}=1 {0,2}=2 {0,3}=3
			{0, 2, 3, 0},
			{0, 3, 4, 0},
			{1, 2, 1, 14}, // {0,2}=2 {0,3}=3 {1,2}=4 {1,3}=5
			{2, 3, 1, 14}, // {0,3}=3 {1,3}=5 {2,3}=6
		},
		demand: map[[2]int]float64{
			{0, 1}: 1, {0, 2}: 2, {0, 3}: 3, {1, 2}: 4, {1, 3}: 5, {2, 3}: 6,
		},
		paths: map[[2]int][]int{
			{0, 3}: {0, 1, 2, 3},
			{3, 0}: {3, 2, 1, 0},
			{0, 2}: {0, 1, 2},
			{1, 3}: {1, 2, 3},
		},
		cores: 4,
		// (10+1+0.5·6) + (10+3) + (10+4) + (10+1+0.5·14) + (10+1+0.5·14) + 4·4
		total: 14 + 13 + 14 + 18 + 18 + 16,
	},
	{
		// Two components: routes stay inside each, and no route crosses.
		name: "two-components",
		n:    4,
		links: []knownLink{
			{0, 1, 1, 0},
			{2, 3, 2, 0},
		},
		demand: unitDemand(4),
		paths: map[[2]int][]int{
			{0, 1}: {0, 1},
			{3, 2}: {3, 2},
			{0, 3}: nil,
			{2, 1}: nil,
		},
		total: math.Inf(1),
	},
}

// build builds the evaluator and graph of a known-answer case. Lengths
// of absent links are never read by routing; they are set to 100.
func (kg knownGraph) build(t *testing.T) (*Evaluator, *graph.Graph) {
	t.Helper()
	dist := make([][]float64, kg.n)
	demand := make([][]float64, kg.n)
	for i := range dist {
		dist[i] = make([]float64, kg.n)
		demand[i] = make([]float64, kg.n)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = 100
			}
		}
	}
	edges := make([][2]int, len(kg.links))
	for k, l := range kg.links {
		dist[l.a][l.b], dist[l.b][l.a] = l.length, l.length
		edges[k] = [2]int{l.a, l.b}
	}
	for p, v := range kg.demand {
		demand[p[0]][p[1]], demand[p[1]][p[0]] = v, v
	}
	e, err := NewEvaluator(dist, &traffic.Matrix{Demand: demand}, knownParams)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(kg.n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return e, g
}

// TestKnownAnswerRouting checks routes, per-link capacities and cost of
// every known-answer graph. The heap-on case runs the evaluator (Evaluate
// and Cost, on its heap kernel); the heap-off case routes with the
// linear-scan reference (referenceEvaluate), so the table also pins the
// oracle the equivalence suite trusts.
func TestKnownAnswerRouting(t *testing.T) {
	for _, kg := range knownGraphs {
		for _, kernel := range []string{"heap-on", "heap-off"} {
			t.Run(kg.name+"/"+kernel, func(t *testing.T) {
				e, g := kg.build(t)
				var ev *Evaluation
				if kernel == "heap-on" {
					ev = e.Evaluate(g)
					if c := e.Cost(g); c != kg.total {
						t.Errorf("Cost = %v, want %v", c, kg.total)
					}
				} else {
					ev = referenceEvaluate(e, g)
				}
				if ev.Total != kg.total {
					t.Errorf("Evaluate total = %v, want %v", ev.Total, kg.total)
				}
				for sd, want := range kg.paths {
					if got := ev.Routing.Path(sd[0], sd[1]); !slices.Equal(got, want) {
						t.Errorf("Path(%d, %d) = %v, want %v", sd[0], sd[1], got, want)
					}
				}
				if math.IsInf(kg.total, 1) {
					if ev.Connected {
						t.Error("disconnected graph evaluated as connected")
					}
					return
				}
				if ev.CoreCount != kg.cores {
					t.Errorf("cores = %d, want %d", ev.CoreCount, kg.cores)
				}
				if len(ev.Edges) != len(kg.links) {
					t.Fatalf("%d edges evaluated, want %d", len(ev.Edges), len(kg.links))
				}
				for k, l := range kg.links {
					if ev.Edges[k] != (graph.Edge{I: l.a, J: l.b}) {
						t.Fatalf("edge %d = %v, want %d-%d", k, ev.Edges[k], l.a, l.b)
					}
					if ev.Lengths[k] != l.length || ev.Capacities[k] != l.capacity {
						t.Errorf("link %d-%d: length %v capacity %v, want %v and %v",
							l.a, l.b, ev.Lengths[k], ev.Capacities[k], l.length, l.capacity)
					}
				}
			})
		}
	}
}
