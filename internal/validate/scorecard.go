package validate

import (
	"math"
	"math/rand"

	"github.com/networksynth/cold/internal/stats"
)

// ScorecardSchemaVersion versions the scorecard JSON schema.
const ScorecardSchemaVersion = 1

// Thresholds are the explicit pass criteria a scorecard is judged under.
// They are recorded in the scorecard itself so a stored verdict is
// self-describing.
type Thresholds struct {
	// MaxDist1K / MaxDist2K bound the total-variation distance between
	// the subject's and the reference's pooled degree / joint-degree
	// distributions.
	MaxDist1K float64 `json:"max_dist_1k"`
	MaxDist2K float64 `json:"max_dist_2k"`

	// MinOverlapFrac is the minimum fraction of scored metrics whose
	// bootstrap confidence intervals must overlap the reference's.
	MinOverlapFrac float64 `json:"min_overlap_frac"`
}

// DefaultThresholds returns the standing regression thresholds. They are
// loose on purpose: the scorecard's job is to fail loudly when generation
// quality regresses wholesale (a self-comparison scores distance 0 and
// full overlap), not to claim COLD reproduces the zoo exactly.
func DefaultThresholds() Thresholds {
	return Thresholds{MaxDist1K: 0.35, MaxDist2K: 0.5, MinOverlapFrac: 0.5}
}

// confidence is the two-sided level of every bootstrap confidence
// interval a scorecard reports.
const confidence = 0.95

// ScoreOptions configures Score. Scorecards are judged under
// DefaultThresholds with 95% bootstrap confidence intervals.
type ScoreOptions struct {
	// Bootstrap is the number of bootstrap resamples per confidence
	// interval (zero means 1000).
	Bootstrap int

	// Seed drives the bootstrap rng; equal inputs and seed give
	// byte-identical scorecards.
	Seed int64
}

func (o ScoreOptions) normalize() ScoreOptions {
	if o.Bootstrap <= 0 {
		o.Bootstrap = 1000
	}
	return o
}

// MetricScore compares one scalar metric between subject and reference.
type MetricScore struct {
	Name string `json:"name"`

	Mean   Float `json:"mean"` // subject bootstrap mean and CI
	Lo     Float `json:"lo"`
	Hi     Float `json:"hi"`
	Std    Float `json:"std"` // streaming (Welford) standard deviation
	Finite int   `json:"finite"`

	RefMean   Float `json:"ref_mean"`
	RefLo     Float `json:"ref_lo"`
	RefHi     Float `json:"ref_hi"`
	RefStd    Float `json:"ref_std"`
	RefFinite int   `json:"ref_finite"`

	// KS is the two-sample Kolmogorov–Smirnov statistic between the two
	// finite-sample vectors; null when either side is empty.
	KS Float `json:"ks"`

	// Scored reports whether both sides had enough finite samples (>= 2)
	// to compare; Overlap whether the two CIs intersect.
	Scored  bool `json:"scored"`
	Overlap bool `json:"overlap"`
}

// Scorecard is the machine-readable answer to "does the subject ensemble
// match the reference family?".
type Scorecard struct {
	V         int    `json:"v"`
	Subject   string `json:"subject"`
	Reference string `json:"reference"`
	Count     int    `json:"count"`
	RefCount  int    `json:"ref_count"`

	// Dist1K / Dist2K are total-variation distances between the pooled
	// degree / joint-degree distributions of the two ensembles.
	Dist1K Float `json:"dist_1k"`
	Dist2K Float `json:"dist_2k"`

	Metrics []MetricScore `json:"metrics"`

	// Scored counts metrics compared; OverlapFrac is the fraction of
	// those whose CIs overlap (null when nothing was scored).
	Scored      int   `json:"scored"`
	OverlapFrac Float `json:"overlap_frac"`

	Thresholds Thresholds `json:"thresholds"`
	Pass       bool       `json:"pass"`
}

// Score builds the scorecard comparing subject against ref. It is
// deterministic: metric order is fixed, the bootstrap rng is seeded from
// opts.Seed, and distance accumulation is order-pinned — equal ensembles
// and options give byte-identical JSON.
func Score(subject, ref *Ensemble, opts ScoreOptions) *Scorecard {
	opts = opts.normalize()
	rng := rand.New(rand.NewSource(opts.Seed))
	sc := &Scorecard{
		V:          ScorecardSchemaVersion,
		Subject:    subject.Name,
		Reference:  ref.Name,
		Count:      subject.Count,
		RefCount:   ref.Count,
		Dist1K:     Float(Dist1K(subject.Pooled1K, ref.Pooled1K)),
		Dist2K:     Float(Dist2K(subject.Pooled2K, ref.Pooled2K)),
		Thresholds: DefaultThresholds(),
	}
	overlaps := 0
	for i, def := range metricDefs {
		sa, ra := &subject.aggs[i], &ref.aggs[i]
		ci := stats.BootstrapMeanCI(sa.samples, confidence, opts.Bootstrap, rng)
		rci := stats.BootstrapMeanCI(ra.samples, confidence, opts.Bootstrap, rng)
		ms := MetricScore{
			Name:      def.name,
			Mean:      Float(ci.Mean),
			Lo:        Float(ci.Lo),
			Hi:        Float(ci.Hi),
			Std:       Float(sa.w.Std()),
			Finite:    len(sa.samples),
			RefMean:   Float(rci.Mean),
			RefLo:     Float(rci.Lo),
			RefHi:     Float(rci.Hi),
			RefStd:    Float(ra.w.Std()),
			RefFinite: len(ra.samples),
			KS:        Float(ksStat(sa.samples, ra.samples)),
		}
		ms.Scored = len(sa.samples) >= 2 && len(ra.samples) >= 2
		if ms.Scored {
			sc.Scored++
			ms.Overlap = float64(ms.Lo) <= float64(ms.RefHi) && float64(ms.RefLo) <= float64(ms.Hi)
			if ms.Overlap {
				overlaps++
			}
		}
		sc.Metrics = append(sc.Metrics, ms)
	}
	if sc.Scored > 0 {
		sc.OverlapFrac = Float(float64(overlaps) / float64(sc.Scored))
	} else {
		sc.OverlapFrac = Float(math.NaN())
	}
	sc.Pass = sc.Scored > 0 &&
		float64(sc.Dist1K) <= sc.Thresholds.MaxDist1K &&
		float64(sc.Dist2K) <= sc.Thresholds.MaxDist2K &&
		float64(sc.OverlapFrac) >= sc.Thresholds.MinOverlapFrac
	return sc
}
