package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

// DijkstraKernels measures the evaluator's two Dijkstra kernels — the
// O(n²) linear scan and the indexed heap — across context sizes, on GA-like
// sparse candidates (~3 links per PoP). Both are bit-identical in output
// (the cost package's equivalence suite proves it), so this table is purely
// about speed: it documents the crossover behind cost.DefaultHeapThreshold.
func DijkstraKernels(o Options) *Table {
	o = o.normalize()
	sizes := []int{16, 32, 64, 128, 256}
	reps := max(o.Trials, 3)
	t := &Table{
		Title: "evaluator kernels: linear vs heap (sparse candidates, ~3 links/PoP)",
		Notes: []string{
			fmt.Sprintf("%d evaluations per cell", reps),
			fmt.Sprintf("auto kernel selection switches linear→heap at n >= %d", cost.DefaultHeapThreshold),
		},
		Columns: []string{"n", "linear µs", "heap µs", "heap speedup"},
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(o.Seed))
		pts := geom.NewUniform().Sample(n, rng)
		pops := traffic.NewExponential().Sample(n, rng)
		dist := geom.DistanceMatrix(pts)
		tm := traffic.Gravity(pops, traffic.DefaultGravityScale)
		params := cost.Params{K0: 10, K1: 1, K2: 2e-4, K3: 0}

		g := graph.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 3.0/float64(n) {
					g.AddEdge(i, j)
				}
			}
		}
		g.Connect(dist)

		timeEval := func(opts cost.Options) float64 {
			e, err := cost.NewEvaluatorOptions(dist, tm, params, opts)
			if err != nil {
				panic(err)
			}
			e.SetCacheLimit(0)
			e.CostUncached(g) // warm scratch buffers outside the timer
			start := time.Now()
			for r := 0; r < reps; r++ {
				e.CostUncached(g)
			}
			return float64(time.Since(start).Microseconds()) / float64(reps)
		}
		linUS := timeEval(cost.Options{Heap: cost.ForceOff})
		heapUS := timeEval(cost.Options{Heap: cost.ForceOn})

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", linUS),
			fmt.Sprintf("%.0f", heapUS),
			fmt.Sprintf("%.2fx", linUS/heapUS),
		})
	}
	return t
}
