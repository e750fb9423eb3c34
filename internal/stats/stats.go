// Package stats provides the small statistical toolkit the COLD experiments
// rely on: summary statistics, percentile bootstrap confidence intervals
// (used for the error bars in Figures 3 and 5–9 of the paper) and a couple
// of random variate helpers shared by the synthesis code.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance, or NaN when fewer than two
// samples are given.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoefficientOfVariation returns StdDev/Mean. The paper uses it on node
// degrees (CVND) to quantify "hubbiness" (§7). Returns NaN for a zero mean
// or insufficient data.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return StdDev(xs) / m
}

// Percentile returns the p-quantile (p in [0,1]) of xs using linear
// interpolation between order statistics. Returns NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CI is a two-sided confidence interval around a point estimate.
type CI struct {
	Mean, Lo, Hi float64
}

// String renders the interval as "m [lo, hi]".
func (c CI) String() string { return fmt.Sprintf("%.4g [%.4g, %.4g]", c.Mean, c.Lo, c.Hi) }

// Width returns Hi - Lo.
func (c CI) Width() float64 { return c.Hi - c.Lo }

// BootstrapMeanCI returns a percentile bootstrap confidence interval for
// the mean of xs at the given confidence level (e.g. 0.95), using resamples
// bootstrap replicates. This is the procedure behind the paper's "95%
// bootstrap confidence intervals for the mean" (Figure 3). The rng makes
// results reproducible. For fewer than two samples the interval degenerates
// to the point estimate.
func BootstrapMeanCI(xs []float64, confidence float64, resamples int, rng *rand.Rand) CI {
	m := Mean(xs)
	if len(xs) < 2 || resamples < 1 {
		return CI{Mean: m, Lo: m, Hi: m}
	}
	means := make([]float64, resamples)
	for b := range means {
		var s float64
		for i := 0; i < len(xs); i++ {
			s += xs[rng.Intn(len(xs))]
		}
		means[b] = s / float64(len(xs))
	}
	sort.Float64s(means)
	alpha := (1 - confidence) / 2
	return CI{
		Mean: m,
		Lo:   sortedPercentile(means, alpha),
		Hi:   sortedPercentile(means, 1-alpha),
	}
}

// Geometric draws a geometric random variate counting failures before the
// first success: P(X = k) = (1-p)^k p, k = 0,1,2,... with mean (1-p)/p. The
// paper's link mutation draws the number of added and removed links from
// Geometric(0.5), "giving an average of two link changes each time a
// mutation occurs" — i.e. each count has mean 1 and together they average
// two changes. Panics if p is not in (0, 1].
func Geometric(p float64, rng Source) int {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("stats: geometric parameter %v out of (0,1]", p))
	}
	if p == 1 {
		return 0
	}
	// Inversion: floor(log(U)/log(1-p)).
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return int(math.Log(u) / math.Log(1-p))
}

// Poisson draws a Poisson variate with the given mean via Knuth's
// multiplication method (adequate for the small means used here; for
// mean > 30 it falls back to a rounded normal approximation). Panics on
// negative or non-finite mean.
func Poisson(mean float64, rng *rand.Rand) int {
	if mean < 0 || math.IsNaN(mean) || math.IsInf(mean, 0) {
		panic(fmt.Sprintf("stats: invalid Poisson mean %v", mean))
	}
	if mean == 0 {
		return 0
	}
	if mean > 30 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(math.Round(v))
	}
	limit := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// WeightedIndex picks an index with probability proportional to weights[i].
// It panics if no weight is positive or any weight is negative or NaN. The
// GA uses it with weights 1/cost for parent selection. It consumes exactly
// one Float64 from rng and equals PickWeighted(weights,
// WeightTotal(weights), rng.Float64()).
func WeightedIndex(weights []float64, rng Source) int {
	return PickWeighted(weights, WeightTotal(weights), rng.Float64())
}

// WeightTotal validates weights for a weighted draw and returns their sum,
// added in index order. It panics if no weight is positive or any weight
// is negative or NaN. Callers that draw many times from the same weights
// validate and sum them once here, then call PickWeighted per draw.
func WeightTotal(weights []float64) float64 {
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("stats: invalid weight %v", w))
		}
		total += w
	}
	if total <= 0 {
		panic("stats: all weights zero")
	}
	return total
}

// PickWeighted maps a uniform u in [0, 1) to an index with probability
// proportional to weights[i], given total = WeightTotal(weights): it walks
// the cumulative weights until u·total is exhausted, falling back to the
// last index when rounding leaves a remainder. The explicit conversion
// rounds u·total before the first subtraction, so no architecture fuses
// the two into an FMA.
func PickWeighted(weights []float64, total, u float64) int {
	r := float64(u * total)
	for i, w := range weights {
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(weights) - 1 // numeric fallback
}

// ECDF returns the empirical CDF of xs evaluated at the sorted sample
// points: pairs (x_(i), i/n). Used to reproduce the distribution plot in
// Figure 8a.
func ECDF(xs []float64) (points []float64, cdf []float64) {
	if len(xs) == 0 {
		return nil, nil
	}
	points = append([]float64(nil), xs...)
	sort.Float64s(points)
	cdf = make([]float64, len(points))
	for i := range points {
		cdf[i] = float64(i+1) / float64(len(points))
	}
	return points, cdf
}

// FractionAbove returns the fraction of xs strictly greater than threshold.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	count := 0
	for _, x := range xs {
		if x > threshold {
			count++
		}
	}
	return float64(count) / float64(len(xs))
}

// MinMax returns the smallest and largest values of xs. It panics on empty
// input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
