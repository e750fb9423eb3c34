package cold

// Canonicalization layer: Validate, Canonical and Hash turn a Config into
// a checked, normalized, deterministically encoded request. COLD is
// deterministic — equal (Config, Seed) pairs generate identical networks —
// so the canonical hash identifies a run's entire output ensemble, which
// is what makes content-addressed result caching (cmd/coldd,
// internal/store) correct: two requests with equal hashes may share one
// generation.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"github.com/networksynth/cold/internal/traffic"
)

// ConfigSchemaVersion versions the canonical Config encoding AND the
// generation semantics behind it. It is stamped into every Canonical()
// payload, so Hash() changes whenever it is bumped.
//
// The contract: for a fixed ConfigSchemaVersion, equal hashes imply
// byte-identical generated networks (per the golden fixtures under
// results/golden/). The version MUST be bumped by any change that alters
// generated bytes for a fixed Config — a canonical-encoding change, a new
// hashed field, or a semantic change such as a new rng regime or evaluator
// tie-break (exactly the changes that force re-blessing the golden
// fixtures). Version 1 corresponds to the PR 2 seed regime.
const ConfigSchemaVersion = 1

// ErrInvalidConfig is the sentinel every Config validation error wraps:
// errors.Is(err, ErrInvalidConfig) reports whether err (from Validate,
// Canonical, Hash or any Generate* function) means the request itself was
// malformed, as opposed to a runtime failure.
var ErrInvalidConfig = errors.New("invalid config")

// FieldError is one invalid Config field. It wraps ErrInvalidConfig, so
// both errors.Is(err, ErrInvalidConfig) and errors.As(err, *(*FieldError))
// work on anything Validate returns.
type FieldError struct {
	Field string // dotted path, e.g. "NumPoPs" or "Traffic.ParetoShape"
	Msg   string
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("cold: invalid config: %s: %s", e.Field, e.Msg)
}

// Is makes every FieldError match the ErrInvalidConfig sentinel.
func (e *FieldError) Is(target error) bool { return target == ErrInvalidConfig }

// Validate checks every Config field and returns nil or an error joining
// one *FieldError per problem (all of them, not just the first). The
// checks are exactly the ones generation applies: Validate(cfg) == nil
// if and only if buildContext accepts cfg, which is what lets a service
// reject bad requests up front and cache on Config.Hash() safely.
// Generation can still reject an accepted config, also with
// ErrInvalidConfig, when every topology's cost overflows to +Inf; only
// evaluating the sampled context reveals that.
func (cfg Config) Validate() error {
	var errs []error
	bad := func(field, format string, args ...any) {
		errs = append(errs, &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

	if cfg.NumPoPs < 2 {
		// A single PoP has no link to design, and its summary statistics
		// (degree CV, mean path length) are undefined, so it cannot export.
		bad("NumPoPs", "%d must be >= 2", cfg.NumPoPs)
	}
	if cfg.Parallelism < 0 {
		bad("Parallelism", "%d must be >= 0", cfg.Parallelism)
	}

	// Params: zero value means DefaultParams; otherwise mirror
	// cost.Params.Validate (non-negative, finite).
	if cfg.Params != (Params{}) {
		for _, f := range []struct {
			name string
			val  float64
		}{
			{"Params.K0", cfg.Params.K0},
			{"Params.K1", cfg.Params.K1},
			{"Params.K2", cfg.Params.K2},
			{"Params.K3", cfg.Params.K3},
		} {
			if f.val < 0 || !finite(f.val) {
				bad(f.name, "%v must be non-negative and finite", f.val)
			}
		}
	}

	switch cfg.Locations.Kind {
	case LocUniform, LocClustered, LocGrid:
		if a := cfg.Locations.Aspect; a < 0 || !finite(a) {
			bad("Locations.Aspect", "%v must be positive and finite (or 0 for the default)", a)
		}
		if cfg.Locations.Kind == LocClustered {
			if c := cfg.Locations.Clusters; c < 0 || c > cfg.NumPoPs {
				bad("Locations.Clusters", "%d must be in [0, NumPoPs=%d] (0 means the default)", c, cfg.NumPoPs)
			}
			if s := cfg.Locations.Sigma; s < 0 || !finite(s) {
				bad("Locations.Sigma", "%v must be non-negative and finite", s)
			}
		}
	case LocFixed:
		if len(cfg.Locations.Points) < cfg.NumPoPs {
			bad("Locations.Points", "has %d points, need %d", len(cfg.Locations.Points), cfg.NumPoPs)
		} else {
			for i, p := range cfg.Locations.Points[:max(cfg.NumPoPs, 0)] {
				if !finite(p.X) || !finite(p.Y) {
					bad("Locations.Points", "point %d = (%v, %v) must be finite", i, p.X, p.Y)
					break
				}
			}
		}
	default:
		bad("Locations.Kind", "unknown location kind %d", cfg.Locations.Kind)
	}

	switch cfg.Traffic.Kind {
	case TrafficExponential, TrafficPareto, TrafficUniform:
		if m := cfg.Traffic.MeanPopulation; m < 0 || !finite(m) {
			bad("Traffic.MeanPopulation", "%v must be non-negative and finite", m)
		}
		if cfg.Traffic.Kind == TrafficPareto {
			if s := cfg.Traffic.ParetoShape; s != 0 && (s <= 1 || !finite(s)) {
				bad("Traffic.ParetoShape", "%v must exceed 1 (or be 0 for the default)", s)
			}
		}
	case TrafficFixed:
		if len(cfg.Traffic.Populations) < cfg.NumPoPs {
			bad("Traffic.Populations", "has %d populations, need %d", len(cfg.Traffic.Populations), cfg.NumPoPs)
		} else {
			for i, p := range cfg.Traffic.Populations[:max(cfg.NumPoPs, 0)] {
				if p <= 0 || !finite(p) {
					bad("Traffic.Populations", "population %d = %v must be positive and finite", i, p)
					break
				}
			}
		}
	default:
		bad("Traffic.Kind", "unknown traffic kind %d", cfg.Traffic.Kind)
	}
	if s := cfg.Traffic.Scale; s < 0 || !finite(s) {
		bad("Traffic.Scale", "%v must be non-negative and finite", s)
	}

	// The GA requires population >= 2 and generations >= 1; zero means the
	// paper's defaults (100 and 100).
	if p := cfg.Optimizer.PopulationSize; p != 0 && p < 2 {
		bad("Optimizer.PopulationSize", "%d must be >= 2 (or 0 for the default)", p)
	}
	if g := cfg.Optimizer.Generations; g < 0 {
		bad("Optimizer.Generations", "%d must be >= 0 (0 means the default)", g)
	}

	return errors.Join(errs...)
}

// canonicalConfig is the versioned normal form behind Canonical. Field
// order is fixed (encoding/json emits struct fields in declaration order)
// and enum kinds are encoded as names, so renumbering the Go constants can
// never silently change hashes.
type canonicalConfig struct {
	V       int               `json:"v"`
	NumPoPs int               `json:"num_pops"`
	Seed    int64             `json:"seed"`
	Params  [4]float64        `json:"params"` // k0, k1, k2, k3 after default resolution
	Loc     canonicalLocation `json:"locations"`
	Traffic canonicalTraffic  `json:"traffic"`
	Opt     canonicalOpt      `json:"optimizer"`
}

type canonicalLocation struct {
	Kind     string       `json:"kind"`
	Aspect   float64      `json:"aspect,omitempty"`   // uniform, clustered, grid
	Clusters int          `json:"clusters,omitempty"` // clustered
	Sigma    float64      `json:"sigma,omitempty"`    // clustered
	Points   [][2]float64 `json:"points,omitempty"`   // fixed, truncated to NumPoPs
}

type canonicalTraffic struct {
	Kind        string    `json:"kind"`
	Mean        float64   `json:"mean,omitempty"`         // exponential, pareto, uniform
	ParetoShape float64   `json:"pareto_shape,omitempty"` // pareto
	Scale       float64   `json:"scale"`
	Populations []float64 `json:"populations,omitempty"` // fixed, truncated to NumPoPs
}

type canonicalOpt struct {
	PopulationSize int  `json:"pop"`
	Generations    int  `json:"gens"`
	Heuristics     bool `json:"heuristics"`
	TrackHistory   bool `json:"track_history"`
}

// locationKindNames / trafficKindNames give enum values stable names for
// the canonical encoding.
var locationKindNames = map[LocationKind]string{
	LocUniform:   "uniform",
	LocClustered: "clustered",
	LocGrid:      "grid",
	LocFixed:     "fixed",
}

var trafficKindNames = map[TrafficKind]string{
	TrafficExponential: "exponential",
	TrafficPareto:      "pareto",
	TrafficUniform:     "uniform",
	TrafficFixed:       "fixed",
}

// Canonical returns the deterministic, versioned JSON encoding of the
// config — its normal form. Two configs have equal canonical bytes exactly
// when they generate identical output:
//
//   - Defaults are resolved (zero Params becomes DefaultParams, zero
//     optimizer sizes become the paper's 100×100, and so on), so a config
//     spelled with explicit defaults encodes the same as one relying on
//     zero values.
//   - Fields that cannot affect generated networks — Parallelism, Progress,
//     Telemetry, RunID — are excluded: outputs are bit-identical across all
//     of them by construction.
//   - Fields irrelevant to the selected Kind (e.g. Clusters under
//     LocUniform, Points beyond NumPoPs) are dropped.
//
// The encoding is versioned by ConfigSchemaVersion (the "v" field); see
// its doc for the stability contract. Canonical returns the validation
// error (wrapping ErrInvalidConfig) for invalid configs.
func (cfg Config) Canonical() ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	params := cfg.Params
	if params == (Params{}) {
		params = DefaultParams()
	}
	c := canonicalConfig{
		V:       ConfigSchemaVersion,
		NumPoPs: cfg.NumPoPs,
		Seed:    cfg.Seed,
		Params:  [4]float64{params.K0, params.K1, params.K2, params.K3},
	}

	c.Loc.Kind = locationKindNames[cfg.Locations.Kind]
	switch cfg.Locations.Kind {
	case LocUniform, LocGrid:
		c.Loc.Aspect = resolve(cfg.Locations.Aspect, 1)
	case LocClustered:
		c.Loc.Aspect = resolve(cfg.Locations.Aspect, 1)
		c.Loc.Clusters = cfg.Locations.Clusters
		if c.Loc.Clusters == 0 {
			c.Loc.Clusters = 5
		}
		c.Loc.Sigma = resolve(cfg.Locations.Sigma, 0.05)
	case LocFixed:
		c.Loc.Points = make([][2]float64, cfg.NumPoPs)
		for i, p := range cfg.Locations.Points[:cfg.NumPoPs] {
			c.Loc.Points[i] = [2]float64{p.X, p.Y}
		}
	}

	c.Traffic.Kind = trafficKindNames[cfg.Traffic.Kind]
	c.Traffic.Scale = resolve(cfg.Traffic.Scale, traffic.DefaultGravityScale)
	switch cfg.Traffic.Kind {
	case TrafficExponential, TrafficUniform:
		c.Traffic.Mean = resolve(cfg.Traffic.MeanPopulation, traffic.DefaultMeanPopulation)
	case TrafficPareto:
		c.Traffic.Mean = resolve(cfg.Traffic.MeanPopulation, traffic.DefaultMeanPopulation)
		c.Traffic.ParetoShape = resolve(cfg.Traffic.ParetoShape, 1.5)
	case TrafficFixed:
		c.Traffic.Populations = append([]float64(nil), cfg.Traffic.Populations[:cfg.NumPoPs]...)
	}

	c.Opt = canonicalOpt{
		PopulationSize: cfg.Optimizer.PopulationSize,
		Generations:    cfg.Optimizer.Generations,
		Heuristics:     cfg.Optimizer.SeedWithHeuristics,
		TrackHistory:   cfg.Optimizer.TrackHistory,
	}
	if c.Opt.PopulationSize == 0 {
		c.Opt.PopulationSize = 100
	}
	if c.Opt.Generations == 0 {
		c.Opt.Generations = 100
	}

	return json.Marshal(c)
}

// resolve returns v, or def when v is the zero "use the default" value.
func resolve(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// Hash returns the lower-case hex SHA-256 of Canonical(): a stable,
// versioned content address for the config's entire deterministic output.
// Equal hashes (at equal ConfigSchemaVersion) mean byte-identical
// generated networks; unequal hashes mean the configs may differ. It is
// the cache key primitive behind cmd/coldd's artifact store. Returns the
// validation error (wrapping ErrInvalidConfig) for invalid configs.
func (cfg Config) Hash() (string, error) {
	b, err := cfg.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
