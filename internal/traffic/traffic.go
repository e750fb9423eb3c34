// Package traffic generates the demand half of a COLD context: random PoP
// populations and the gravity-model traffic matrix built from them (§3.1 of
// the paper).
//
// The paper's default population model draws i.i.d. exponentials with mean
// 30; a Pareto model with shape 10/9 or 1.5 (same mean) provides the
// heavy-tailed alternative evaluated in §7. The gravity model sets the
// demand between PoPs i and j proportional to the product of their
// populations, the maximum-entropy choice given per-PoP totals.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
)

// DefaultMeanPopulation is the paper's population mean.
const DefaultMeanPopulation = 30

// DefaultGravityScale is the gravity-model proportionality constant used
// by default. The paper leaves the constant unspecified; this value was
// calibrated so that, with exponential(30) populations and n = 30 PoPs,
// the synthesis transitions from trees to meshes across the k2 range the
// paper's figures use (2.5e-5 .. 1.6e-3), reproducing Figure 5's average
// degree curve (≈1.9 at the low end to ≈3.2 at k2 = 1.6e-3).
const DefaultGravityScale = 10

// A PopulationModel samples the population ("traffic mass") of each PoP.
type PopulationModel interface {
	// Sample returns n positive populations.
	Sample(n int, rng *rand.Rand) []float64
	// Name identifies the model in reports.
	Name() string
}

// Exponential is the paper's default population model: i.i.d. Exp(mean).
type Exponential struct {
	Mean float64
}

// NewExponential returns the paper's default exponential model (mean 30).
func NewExponential() Exponential { return Exponential{Mean: DefaultMeanPopulation} }

// Sample implements PopulationModel.
func (e Exponential) Sample(n int, rng *rand.Rand) []float64 {
	mean := e.Mean
	if mean <= 0 {
		mean = DefaultMeanPopulation
	}
	pops := make([]float64, n)
	for i := range pops {
		pops[i] = rng.ExpFloat64() * mean
	}
	return pops
}

// Name implements PopulationModel.
func (e Exponential) Name() string { return fmt.Sprintf("exponential(mean=%g)", e.Mean) }

// Pareto is the heavy-tailed population model of §7: Pareto with the given
// shape alpha (> 1 so the mean exists; the paper uses 10/9 and 1.5), with
// the scale chosen so the mean equals Mean.
type Pareto struct {
	Shape float64 // alpha
	Mean  float64
}

// NewPareto returns a Pareto model with the paper's default mean (30).
func NewPareto(shape float64) Pareto { return Pareto{Shape: shape, Mean: DefaultMeanPopulation} }

// Scale returns the Pareto scale (minimum value) x_m implied by Shape and
// Mean: mean = alpha·x_m/(alpha−1).
func (p Pareto) Scale() float64 {
	return p.Mean * (p.Shape - 1) / p.Shape
}

// Sample implements PopulationModel. It panics if Shape <= 1 (infinite
// mean) or Mean <= 0, which would make the model meaningless here.
func (p Pareto) Sample(n int, rng *rand.Rand) []float64 {
	if p.Shape <= 1 {
		panic(fmt.Sprintf("traffic: Pareto shape %v must exceed 1 for a finite mean", p.Shape))
	}
	if p.Mean <= 0 {
		panic(fmt.Sprintf("traffic: Pareto mean %v must be positive", p.Mean))
	}
	xm := p.Scale()
	pops := make([]float64, n)
	for i := range pops {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		pops[i] = xm / math.Pow(u, 1/p.Shape)
	}
	return pops
}

// Name implements PopulationModel.
func (p Pareto) Name() string { return fmt.Sprintf("pareto(shape=%g, mean=%g)", p.Shape, p.Mean) }

// Uniform populations are a low-variance model useful for tests: all PoPs
// get exactly Value.
type Uniform struct {
	Value float64
}

// Sample implements PopulationModel.
func (u Uniform) Sample(n int, _ *rand.Rand) []float64 {
	pops := make([]float64, n)
	for i := range pops {
		pops[i] = u.Value
	}
	return pops
}

// Name implements PopulationModel.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(%g)", u.Value) }

// Matrix is a symmetric traffic matrix: Demand[i][j] is the traffic between
// PoPs i and j (zero on the diagonal).
type Matrix struct {
	Demand [][]float64
}

// N returns the number of PoPs.
func (m *Matrix) N() int { return len(m.Demand) }

// Total returns the sum of all demands (each unordered pair counted once
// per direction, i.e. the full matrix sum).
func (m *Matrix) Total() float64 {
	var s float64
	for _, row := range m.Demand {
		for _, v := range row {
			s += v
		}
	}
	return s
}

// Gravity builds the gravity-model traffic matrix from populations:
// Demand[i][j] = scale · pop_i · pop_j for i ≠ j. Pass DefaultGravityScale
// to reproduce the paper's figures — that is the calibrated constant every
// experiment harness uses; other scales simply shift the k2 range where
// the tree-to-mesh transition happens (multiplying scale by c divides the
// interesting k2 values by c).
func Gravity(pops []float64, scale float64) *Matrix {
	n := len(pops)
	d := make([][]float64, n)
	flat := make([]float64, n*n)
	for i := range d {
		d[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := scale * pops[i] * pops[j]
			d[i][j] = v
			d[j][i] = v
		}
	}
	return &Matrix{Demand: d}
}

// Validate checks structural invariants: squareness, symmetry, zero
// diagonal and non-negative finite entries.
func (m *Matrix) Validate() error {
	n := m.N()
	for i, row := range m.Demand {
		if len(row) != n {
			return fmt.Errorf("traffic: row %d has %d entries, want %d", i, len(row), n)
		}
		if row[i] != 0 {
			return fmt.Errorf("traffic: nonzero diagonal at %d", i)
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("traffic: invalid demand %v at (%d,%d)", v, i, j)
			}
			if m.Demand[j][i] != v {
				return fmt.Errorf("traffic: asymmetric at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// RowSums returns the total demand originating at each PoP, which drives
// how many routers a PoP needs at the router level.
func (m *Matrix) RowSums() []float64 {
	out := make([]float64, m.N())
	for i, row := range m.Demand {
		var s float64
		for _, v := range row {
			s += v
		}
		out[i] = s
	}
	return out
}
