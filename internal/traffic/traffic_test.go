package traffic

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestExponentialMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pops := NewExponential().Sample(50000, rng)
	m := mean(pops)
	if math.Abs(m-30) > 1 {
		t.Errorf("exponential mean = %v, want ~30", m)
	}
	for _, p := range pops {
		if p < 0 {
			t.Fatal("negative population")
		}
	}
}

func TestExponentialZeroMeanRepaired(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pops := Exponential{}.Sample(1000, rng)
	if m := mean(pops); math.Abs(m-30) > 4 {
		t.Errorf("zero-value Exponential mean = %v, want default 30", m)
	}
}

func TestParetoMeanAndScale(t *testing.T) {
	for _, shape := range []float64{10.0 / 9.0, 1.5, 3} {
		p := NewPareto(shape)
		rng := rand.New(rand.NewSource(7))
		// Heavy tails converge slowly; allow generous tolerance and lots
		// of samples, scaling tolerance with tail weight.
		pops := p.Sample(400000, rng)
		m := mean(pops)
		tol := 2.0
		if shape < 1.2 {
			tol = 12 // alpha=10/9 has infinite variance; very slow LLN
		}
		if math.Abs(m-30) > tol {
			t.Errorf("pareto(%v) mean = %v, want ~30", shape, m)
		}
		// All samples at least the scale.
		xm := p.Scale()
		for _, v := range pops[:1000] {
			if v < xm-1e-12 {
				t.Fatalf("pareto sample %v below scale %v", v, xm)
			}
		}
	}
}

func TestParetoHeavierTail(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	exp := NewExponential().Sample(20000, rng)
	par := NewPareto(10.0/9.0).Sample(20000, rng)
	if q99(par) <= q99(exp) {
		t.Errorf("pareto 99th pct %v should exceed exponential %v", q99(par), q99(exp))
	}
}

func TestParetoPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []Pareto{{Shape: 1, Mean: 30}, {Shape: 0.5, Mean: 30}, {Shape: 2, Mean: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pareto %+v should panic", p)
				}
			}()
			p.Sample(1, rng)
		}()
	}
}

func TestUniformModel(t *testing.T) {
	pops := Uniform{Value: 7}.Sample(5, nil)
	for _, p := range pops {
		if p != 7 {
			t.Fatalf("uniform pops = %v", pops)
		}
	}
}

func TestNames(t *testing.T) {
	if NewExponential().Name() != "exponential(mean=30)" {
		t.Errorf("name = %q", NewExponential().Name())
	}
	if NewPareto(1.5).Name() != "pareto(shape=1.5, mean=30)" {
		t.Errorf("name = %q", NewPareto(1.5).Name())
	}
	if (Uniform{Value: 2}).Name() != "uniform(2)" {
		t.Errorf("name = %q", Uniform{Value: 2}.Name())
	}
}

func TestGravity(t *testing.T) {
	pops := []float64{2, 3, 5}
	m := Gravity(pops, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Demand[0][1] != 6 || m.Demand[0][2] != 10 || m.Demand[1][2] != 15 {
		t.Fatalf("gravity demands wrong: %v", m.Demand)
	}
	if m.Demand[1][0] != 6 {
		t.Fatal("gravity not symmetric")
	}
	if m.Total() != 2*(6+10+15) {
		t.Fatalf("Total = %v", m.Total())
	}
}

func TestGravityScale(t *testing.T) {
	pops := []float64{1, 2}
	m := Gravity(pops, 0.5)
	if m.Demand[0][1] != 1 {
		t.Errorf("scaled demand = %v, want 1", m.Demand[0][1])
	}
}

func TestGravityEmptyAndSingle(t *testing.T) {
	if m := Gravity(nil, 1); m.N() != 0 || m.Total() != 0 {
		t.Error("empty gravity wrong")
	}
	m := Gravity([]float64{5}, 1)
	if m.N() != 1 || m.Total() != 0 {
		t.Error("single-PoP gravity should have zero traffic")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := Gravity([]float64{1, 2, 3}, 1)
	m.Demand[0][1] = -1
	if err := m.Validate(); err == nil {
		t.Error("negative demand should fail validation")
	}
	m = Gravity([]float64{1, 2, 3}, 1)
	m.Demand[0][1] = 99 // break symmetry
	if err := m.Validate(); err == nil {
		t.Error("asymmetry should fail validation")
	}
	m = Gravity([]float64{1, 2, 3}, 1)
	m.Demand[1][1] = 5
	if err := m.Validate(); err == nil {
		t.Error("nonzero diagonal should fail validation")
	}
	m = Gravity([]float64{1, 2, 3}, 1)
	m.Demand[0][1] = math.NaN()
	if err := m.Validate(); err == nil {
		t.Error("NaN demand should fail validation")
	}
}

func TestRowSums(t *testing.T) {
	m := Gravity([]float64{1, 2, 3}, 1)
	rs := m.RowSums()
	// Row 0: 1*2 + 1*3 = 5.
	if rs[0] != 5 || rs[1] != 8 || rs[2] != 9 {
		t.Errorf("RowSums = %v", rs)
	}
}

func TestGravityDeterministic(t *testing.T) {
	a := NewExponential().Sample(20, rand.New(rand.NewSource(5)))
	b := NewExponential().Sample(20, rand.New(rand.NewSource(5)))
	ma, mb := Gravity(a, 1), Gravity(b, 1)
	for i := range ma.Demand {
		for j := range ma.Demand[i] {
			if ma.Demand[i][j] != mb.Demand[i][j] {
				t.Fatal("same seed produced different matrices")
			}
		}
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func q99(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)*99/100]
}
