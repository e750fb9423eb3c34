package validate

import (
	"math"
)

// Welford is an online mean/variance accumulator (Welford's algorithm):
// one pass, O(1) state, no retained samples. The pipeline folds values in
// replica order, so the floating-point result is identical for every
// generation Parallelism.
type Welford struct {
	count int64
	mean  float64
	m2    float64
}

// Add folds one value in.
func (w *Welford) Add(x float64) {
	w.count++
	d := x - w.mean
	w.mean += d / float64(w.count)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean, or NaN with no values.
func (w *Welford) Mean() float64 {
	if w.count == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased sample variance, or NaN with fewer than
// two values.
func (w *Welford) Variance() float64 {
	if w.count < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.count-1)
}

// Std returns the unbiased sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// metricAgg accumulates one scalar metric over an ensemble: streaming
// moments plus the finite sample values in replica order. Samples are what
// the bootstrap and the two-sample KS statistic resample — retaining one
// float64 per topology per metric is the pipeline's only per-topology
// state (the graphs themselves are released as soon as they are
// characterized).
type metricAgg struct {
	w       Welford
	nans    int // non-finite samples skipped (NaN assortativity, -1 diameter, …)
	samples []float64
}

func (a *metricAgg) add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		a.nans++
		return
	}
	a.w.Add(x)
	a.samples = append(a.samples, x)
}

// Ensemble is the streaming characterization of one topology family. It
// holds aggregates only — no graphs, no records.
type Ensemble struct {
	Name  string
	Count int // topologies folded

	// Pooled1K and Pooled2K are the degree and joint-degree distributions
	// pooled over every topology in the ensemble (node counts / edge
	// counts summed across members).
	Pooled1K map[int]int
	Pooled2K map[[2]int]int

	aggs []metricAgg // indexed like metricDefs
}

func newEnsemble(name string) *Ensemble {
	return &Ensemble{
		Name:     name,
		Pooled1K: make(map[int]int),
		Pooled2K: make(map[[2]int]int),
		aggs:     make([]metricAgg, len(metricDefs)),
	}
}

// fold accumulates one characterization. Call order must be replica order.
func (e *Ensemble) fold(rec Record, d1 map[int]int, d2 map[[2]int]int) {
	e.Count++
	for i, def := range metricDefs {
		e.aggs[i].add(def.get(rec))
	}
	for deg, count := range d1 {
		e.Pooled1K[deg] += count
	}
	for jd, count := range d2 {
		e.Pooled2K[jd] += count
	}
}

// Metric returns the streaming mean/std, finite-sample count and skipped
// (non-finite) count for the named metric; ok is false for unknown names.
func (e *Ensemble) Metric(name string) (mean, std float64, finite, skipped int, ok bool) {
	for i, def := range metricDefs {
		if def.name == name {
			a := &e.aggs[i]
			return a.w.Mean(), a.w.Std(), len(a.samples), a.nans, true
		}
	}
	return 0, 0, 0, 0, false
}
