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
	"runtime"

	"github.com/networksynth/cold/internal/core"
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
// one *FieldError per problem (all of them, not just the first). Every
// Generate* function generates from the config's normal form (normalize),
// which exists exactly when Validate accepts, so a service can reject bad
// requests up front and cache on Config.Hash() safely. Generation can
// still reject an accepted config, also with ErrInvalidConfig, when every
// topology's cost overflows to +Inf; only evaluating the sampled context
// reveals that.
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

// canonicalConfig is the versioned encoding of the normal form. Field
// order is fixed (encoding/json emits struct fields in declaration order)
// and enum kinds are encoded as names, so renumbering the Go constants can
// never silently change hashes.
type canonicalConfig struct {
	V       int               `json:"v"`
	NumPoPs int               `json:"num_pops"`
	Seed    int64             `json:"seed"`
	Params  [4]float64        `json:"params"` // k0, k1, k2, k3
	Loc     canonicalLocation `json:"locations"`
	Traffic canonicalTraffic  `json:"traffic"`
	Opt     canonicalOpt      `json:"optimizer"`
}

type canonicalLocation struct {
	Kind     string       `json:"kind"`
	Aspect   float64      `json:"aspect,omitempty"`   // uniform, clustered, grid
	Clusters int          `json:"clusters,omitempty"` // clustered
	Sigma    float64      `json:"sigma,omitempty"`    // clustered
	Points   [][2]float64 `json:"points,omitempty"`   // fixed
}

type canonicalTraffic struct {
	Kind        string    `json:"kind"`
	Mean        float64   `json:"mean,omitempty"`         // exponential, pareto, uniform
	ParetoShape float64   `json:"pareto_shape,omitempty"` // pareto
	Scale       float64   `json:"scale"`
	Populations []float64 `json:"populations,omitempty"` // fixed
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

// normalize returns the config's normal form, the one value Canonical
// encodes and generation reads, so equal hashes build equal contexts by
// construction. It validates cfg, then:
//
//   - fills every zero "use the default" field (zero Params becomes
//     DefaultParams, zero optimizer sizes the paper's 100×100, zero
//     Parallelism runtime.GOMAXPROCS(0), and so on);
//   - clears every field the selected Kinds ignore (e.g. Clusters under
//     LocUniform, MeanPopulation under TrafficFixed);
//   - cuts Points and Populations to NumPoPs.
//
// normalize is applied once per run: a normal form need not validate
// again (the default 5 clusters may exceed NumPoPs).
func (cfg Config) normalize() (Config, error) {
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	c := cfg
	if c.Params == (Params{}) {
		c.Params = DefaultParams()
	}
	c.Parallelism = resolve(c.Parallelism, runtime.GOMAXPROCS(0))

	c.Locations = LocationSpec{Kind: cfg.Locations.Kind}
	switch c.Locations.Kind {
	case LocClustered:
		c.Locations.Clusters = resolve(cfg.Locations.Clusters, 5)
		c.Locations.Sigma = resolve(cfg.Locations.Sigma, 0.05)
		fallthrough
	case LocUniform, LocGrid:
		c.Locations.Aspect = resolve(cfg.Locations.Aspect, 1)
	case LocFixed:
		c.Locations.Points = cfg.Locations.Points[:cfg.NumPoPs]
	}

	c.Traffic = TrafficSpec{Kind: cfg.Traffic.Kind, Scale: resolve(cfg.Traffic.Scale, traffic.DefaultGravityScale)}
	switch c.Traffic.Kind {
	case TrafficPareto:
		c.Traffic.ParetoShape = resolve(cfg.Traffic.ParetoShape, 1.5)
		fallthrough
	case TrafficExponential, TrafficUniform:
		c.Traffic.MeanPopulation = resolve(cfg.Traffic.MeanPopulation, traffic.DefaultMeanPopulation)
	case TrafficFixed:
		c.Traffic.Populations = cfg.Traffic.Populations[:cfg.NumPoPs]
	}

	def := core.DefaultSettings()
	c.Optimizer.PopulationSize = resolve(c.Optimizer.PopulationSize, def.PopulationSize)
	c.Optimizer.Generations = resolve(c.Optimizer.Generations, def.Generations)
	return c, nil
}

// resolve returns v, or def when v is the zero "use the default" value.
func resolve[T int | float64](v, def T) T {
	if v == 0 {
		return def
	}
	return v
}

// Canonical returns the deterministic, versioned JSON encoding of the
// config's normal form (see normalize), which generation reads too, so
// configs with equal canonical bytes generate identical output. A config
// spelled with explicit defaults encodes the same as one relying on zero
// values, and fields that cannot affect generated networks — the
// execution-only Parallelism, Telemetry and RunID, and fields irrelevant
// to the selected Kinds — are left out.
//
// The encoding is versioned by ConfigSchemaVersion (the "v" field); see
// its doc for the stability contract. Canonical returns the validation
// error (wrapping ErrInvalidConfig) for invalid configs.
func (cfg Config) Canonical() ([]byte, error) {
	nc, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	p, loc, tr, opt := nc.Params, nc.Locations, nc.Traffic, nc.Optimizer
	c := canonicalConfig{
		V:       ConfigSchemaVersion,
		NumPoPs: nc.NumPoPs,
		Seed:    nc.Seed,
		Params:  [4]float64{p.K0, p.K1, p.K2, p.K3},
		Loc: canonicalLocation{
			Kind:     locationKindNames[loc.Kind],
			Aspect:   loc.Aspect,
			Clusters: loc.Clusters,
			Sigma:    loc.Sigma,
		},
		Traffic: canonicalTraffic{
			Kind:        trafficKindNames[tr.Kind],
			Mean:        tr.MeanPopulation,
			ParetoShape: tr.ParetoShape,
			Scale:       tr.Scale,
			Populations: tr.Populations,
		},
		Opt: canonicalOpt{
			PopulationSize: opt.PopulationSize,
			Generations:    opt.Generations,
			Heuristics:     opt.SeedWithHeuristics,
			TrackHistory:   opt.TrackHistory,
		},
	}
	for _, pt := range loc.Points {
		c.Loc.Points = append(c.Loc.Points, [2]float64{pt.X, pt.Y})
	}
	return json.Marshal(c)
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
