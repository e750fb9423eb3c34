package cost

import (
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/graph"
)

func TestLinearMatchesBuiltin(t *testing.T) {
	p := Params{K0: 10, K1: 1, K2: 3e-4, K3: 7}
	e := randomContext(t, 12, p, 1)
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 12, 0.25, e.Dist())
	builtin := e.Cost(g)
	e.SetLinkCostFunc(Linear(p))
	custom := e.Cost(g)
	if math.Abs(builtin-custom) > 1e-9*builtin {
		t.Fatalf("Linear() cost %v != builtin %v", custom, builtin)
	}
	// Restoring nil goes back to the builtin path.
	e.SetLinkCostFunc(nil)
	if got := e.Cost(g); math.Abs(got-builtin) > 1e-9*builtin {
		t.Fatalf("restored cost %v != builtin %v", got, builtin)
	}
}

func TestLengthDiscountValues(t *testing.T) {
	p := Params{K0: 0, K1: 2, K2: 0, K3: 0}
	fn, err := LengthDiscount(p, 1.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Below threshold: full rate.
	if got := fn(0.5, 0); got != 1.0 {
		t.Errorf("short link = %v, want 1.0", got)
	}
	// Above threshold: 1.0 full + 1.0 at half rate = 1.5 units billed.
	if got := fn(2.0, 0); got != 3.0 {
		t.Errorf("long link = %v, want 3.0", got)
	}
	// discount=1 reproduces linear.
	fn1, _ := LengthDiscount(p, 1.0, 1.0)
	if fn1(2.0, 0) != Linear(p)(2.0, 0) {
		t.Error("discount=1 should equal linear")
	}
}

func TestLengthDiscountValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := LengthDiscount(p, -1, 0.5); err == nil {
		t.Error("negative threshold should error")
	}
	if _, err := LengthDiscount(p, 1, 1.5); err == nil {
		t.Error("discount > 1 should error")
	}
	if _, err := LengthDiscount(p, 1, math.NaN()); err == nil {
		t.Error("NaN discount should error")
	}
}

func TestSteppedBandwidthValues(t *testing.T) {
	p := Params{K0: 0, K1: 0, K2: 1, K3: 0}
	fn, err := SteppedBandwidth(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	// w=3 bills one module of 10 over length 1.
	if got := fn(1, 3); got != 10 {
		t.Errorf("fn(1,3) = %v, want 10", got)
	}
	// w=10 exactly one module.
	if got := fn(1, 10); got != 10 {
		t.Errorf("fn(1,10) = %v, want 10", got)
	}
	// w=10.1 two modules.
	if got := fn(1, 10.1); got != 20 {
		t.Errorf("fn(1,10.1) = %v, want 20", got)
	}
	if _, err := SteppedBandwidth(p, 0); err == nil {
		t.Error("zero granularity should error")
	}
}

func TestSteppedNeverCheaperThanLinear(t *testing.T) {
	p := Params{K0: 5, K1: 1, K2: 2e-4, K3: 0}
	fn, err := SteppedBandwidth(p, 5000)
	if err != nil {
		t.Fatal(err)
	}
	lin := Linear(p)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		l, w := rng.Float64(), rng.Float64()*50000
		if fn(l, w) < lin(l, w)-1e-12 {
			t.Fatalf("stepped %v < linear %v at l=%v w=%v", fn(l, w), lin(l, w), l, w)
		}
	}
}

func TestCustomCostClearsCache(t *testing.T) {
	p := Params{K0: 10, K1: 1, K2: 3e-4, K3: 0}
	e := randomContext(t, 10, p, 3)
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(rng, 10, 0.3, e.Dist())
	linear := e.Cost(g)
	fn, _ := SteppedBandwidth(p, 10000)
	e.SetLinkCostFunc(fn)
	stepped := e.Cost(g)
	if stepped <= linear {
		t.Fatalf("stepped cost %v should exceed linear %v (stale cache?)", stepped, linear)
	}
}

func TestEvaluateWithCustomCost(t *testing.T) {
	p := Params{K0: 10, K1: 1, K2: 3e-4, K3: 5}
	e := randomContext(t, 10, p, 4)
	rng := rand.New(rand.NewSource(4))
	g := randomConnected(rng, 10, 0.3, e.Dist())
	fn, _ := LengthDiscount(p, 0.3, 0.5)
	e.SetLinkCostFunc(fn)
	ev := e.Evaluate(g)
	if ev.LinkTotal <= 0 {
		t.Fatal("LinkTotal not populated under custom model")
	}
	if ev.ExistenceCost != 0 || ev.LengthCost != 0 || ev.BandwidthCost != 0 {
		t.Fatal("linear components should stay zero under custom model")
	}
	if math.Abs(ev.Total-(ev.LinkTotal+ev.NodeCost)) > 1e-9 {
		t.Fatal("total != link total + node cost")
	}
	if math.Abs(ev.Total-e.Cost(g)) > 1e-9*ev.Total {
		t.Fatal("Evaluate and Cost disagree under custom model")
	}
}

func TestEvaluateLinearLinkTotal(t *testing.T) {
	e := randomContext(t, 10, DefaultParams(), 5)
	rng := rand.New(rand.NewSource(5))
	g := randomConnected(rng, 10, 0.3, e.Dist())
	ev := e.Evaluate(g)
	want := ev.ExistenceCost + ev.LengthCost + ev.BandwidthCost
	if math.Abs(ev.LinkTotal-want) > 1e-9*want {
		t.Fatalf("LinkTotal %v != component sum %v", ev.LinkTotal, want)
	}
}

// TestDiscountChangesRanking: an aggressive long-link discount can change
// which of two candidate designs is cheaper — the reason the optimization
// must run against the actual cost model, not a proxy.
func TestDiscountChangesRanking(t *testing.T) {
	p := Params{K0: 0, K1: 10, K2: 0, K3: 0}
	e := randomContext(t, 10, p, 6)
	rng := rand.New(rand.NewSource(7))
	// Candidates: the MST (many short links) and a random connected graph
	// with a few long links.
	mst := graph.MST(10, e.Dist())
	rnd := randomConnected(rng, 10, 0.15, e.Dist())
	linearMST, linearRnd := e.Cost(mst), e.Cost(rnd)
	if linearMST >= linearRnd {
		t.Skip("random candidate happened to beat the MST under k1; pick a different seed")
	}
	// Near-total discount beyond a tiny threshold: all length is nearly
	// free, so the ranking is driven by link count instead.
	fn, err := LengthDiscount(p, 1e-6, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	e.SetLinkCostFunc(fn)
	discMST, discRnd := e.Cost(mst), e.Cost(rnd)
	// Both collapse to ~0 under the discount; the gap must shrink by
	// orders of magnitude, demonstrating the model genuinely changes the
	// optimization landscape.
	if (discRnd - discMST) > (linearRnd-linearMST)/100 {
		t.Errorf("discount barely changed the landscape: linear gap %v, discounted gap %v",
			linearRnd-linearMST, discRnd-discMST)
	}
}

// TestCustomCostNonFiniteIsInf: a link-cost function that returns NaN or
// overflows still yields a totally ordered cost, +Inf, from both Cost and
// Evaluate.
func TestCustomCostNonFiniteIsInf(t *testing.T) {
	e := randomContext(t, 8, DefaultParams(), 8)
	rng := rand.New(rand.NewSource(8))
	g := randomConnected(rng, 8, 0.3, e.Dist())
	for _, fn := range []LinkCostFunc{
		func(l, w float64) float64 { return math.NaN() },
		func(l, w float64) float64 { return math.MaxFloat64 },
	} {
		e.SetLinkCostFunc(fn)
		if c := e.Cost(g); !math.IsInf(c, 1) {
			t.Errorf("Cost = %v, want +Inf", c)
		}
		if c := e.Evaluate(g).Total; !math.IsInf(c, 1) {
			t.Errorf("Evaluate.Total = %v, want +Inf", c)
		}
	}
}
