package core

import (
	"testing"

	"github.com/networksynth/cold/internal/cost"
)

// TestObserverDoesNotChangeResults is the determinism contract: attaching
// an observer must leave the run bit-identical.
func TestObserverDoesNotChangeResults(t *testing.T) {
	for _, par := range []int{1, 4} {
		s := smallSettings()
		s.Parallelism = par
		base, err := Run(ctx(t, 14, cost.DefaultParams(), 3), s, 7)
		if err != nil {
			t.Fatal(err)
		}
		s.Observer = func(GenStats) {}
		observed, err := Run(ctx(t, 14, cost.DefaultParams(), 3), s, 7)
		if err != nil {
			t.Fatal(err)
		}
		if base.BestCost != observed.BestCost {
			t.Fatalf("parallelism %d: best cost %v with observer, %v without",
				par, observed.BestCost, base.BestCost)
		}
		if !base.Best.Equal(observed.Best) {
			t.Fatalf("parallelism %d: best topology changed under observation", par)
		}
		for i := range base.Costs {
			if base.Costs[i] != observed.Costs[i] {
				t.Fatalf("parallelism %d: cost[%d] = %v with observer, %v without",
					par, i, observed.Costs[i], base.Costs[i])
			}
		}
	}
}

// TestObserverStats checks the invariants of the emitted statistics.
func TestObserverStats(t *testing.T) {
	s := smallSettings()
	var got []GenStats
	s.Observer = func(st GenStats) { got = append(got, st) }
	res, err := Run(ctx(t, 14, cost.DefaultParams(), 5), s, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != s.Generations {
		t.Fatalf("%d generation events, want %d", len(got), s.Generations)
	}
	var lastEvals uint64
	for i, st := range got {
		if st.Gen != i {
			t.Fatalf("event %d has Gen %d", i, st.Gen)
		}
		if st.Best > st.Mean || st.Mean > st.Worst {
			t.Fatalf("gen %d: best %v, mean %v, worst %v not ordered", i, st.Best, st.Mean, st.Worst)
		}
		if i > 0 && st.Best > got[i-1].Best {
			t.Fatalf("gen %d: best %v worse than previous %v (elitism violated)", i, st.Best, got[i-1].Best)
		}
		if st.EliteSurvived < 0 || st.EliteSurvived > s.NumSaved {
			t.Fatalf("gen %d: elite survived %d outside [0, %d]", i, st.EliteSurvived, s.NumSaved)
		}
		if i == 0 && st.EliteSurvived != 0 {
			t.Fatalf("gen 0 reports %d surviving elite", st.EliteSurvived)
		}
		if st.Diversity < 0 {
			t.Fatalf("gen %d: negative diversity %v", i, st.Diversity)
		}
		if st.Evals <= lastEvals {
			t.Fatalf("gen %d: evals %d not increasing past %d", i, st.Evals, lastEvals)
		}
		lastEvals = st.Evals
		if st.BreedNs < 0 || st.EvalNs < 0 {
			t.Fatalf("gen %d: negative phase timing", i)
		}
	}
	if got[len(got)-1].Best != res.BestCost {
		t.Fatalf("final event best %v != result best %v", got[len(got)-1].Best, res.BestCost)
	}
	// Elite are pointer-copied, so with a stagnating population the bulk of
	// the elite should survive at least once across the whole run.
	anySurvival := false
	for _, st := range got[1:] {
		if st.EliteSurvived > 0 {
			anySurvival = true
			break
		}
	}
	if !anySurvival {
		t.Fatal("no generation kept any elite member; pointer-identity tracking broken")
	}
}
