// Package par is the repository's one scheduler for parallel computation:
// the GA's breeding and evaluation, the ensemble engine's replicas and the
// experiment harnesses' per-member work all fan out through Each.
package par

import (
	"sync"
	"sync/atomic"
)

// Each calls work(k, i) once for every i in [0, count) on nw
// goroutines — the caller's and nw−1 more — where k in [0, nw) names the
// goroutine, so work can use per-goroutine state (a scratch, an evaluator
// clone). Each goroutine claims the next unclaimed index from a shared
// atomic counter until none is left, so cheap items (the elite's memo
// hits) and dear ones (repaired, fully routed offspring) balance across
// the goroutines instead of landing in fixed chunks. Which goroutine runs
// an index is unspecified: work must make its result depend on i alone.
func Each(nw, count int, work func(k, i int)) {
	var next atomic.Int64
	claim := func(k int) {
		for i := int(next.Add(1) - 1); i < count; i = int(next.Add(1) - 1) {
			work(k, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(nw - 1)
	for k := 1; k < nw; k++ {
		go func(k int) {
			defer wg.Done()
			claim(k)
		}(k)
	}
	claim(0)
	wg.Wait()
}
