package cold

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// --- Validate: typed, errors.Is-able validation errors ---

func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string // expected FieldError.Field of one of the joined errors
	}{
		{"zero pops", Config{}, "NumPoPs"},
		{"negative pops", Config{NumPoPs: -3}, "NumPoPs"},
		{"single pop", Config{NumPoPs: 1}, "NumPoPs"},
		{"negative parallelism", Config{NumPoPs: 5, Parallelism: -1}, "Parallelism"},
		{"negative k2", Config{NumPoPs: 5, Params: Params{K0: 1, K2: -1}}, "Params.K2"},
		{"unknown location", Config{NumPoPs: 5, Locations: LocationSpec{Kind: LocationKind(42)}}, "Locations.Kind"},
		{"short fixed points", Config{NumPoPs: 5, Locations: LocationSpec{Kind: LocFixed, Points: []Point{{0, 0}}}}, "Locations.Points"},
		{"negative clusters", Config{NumPoPs: 5, Locations: LocationSpec{Kind: LocClustered, Clusters: -1}}, "Locations.Clusters"},
		{"more clusters than pops", Config{NumPoPs: 5, Locations: LocationSpec{Kind: LocClustered, Clusters: 6}}, "Locations.Clusters"},
		{"huge clusters", Config{NumPoPs: 10, Locations: LocationSpec{Kind: LocClustered, Clusters: 1 << 62}}, "Locations.Clusters"},
		{"negative sigma", Config{NumPoPs: 5, Locations: LocationSpec{Kind: LocClustered, Sigma: -0.1}}, "Locations.Sigma"},
		{"unknown traffic", Config{NumPoPs: 5, Traffic: TrafficSpec{Kind: TrafficKind(42)}}, "Traffic.Kind"},
		{"bad pareto shape", Config{NumPoPs: 5, Traffic: TrafficSpec{Kind: TrafficPareto, ParetoShape: 0.5}}, "Traffic.ParetoShape"},
		{"negative mean", Config{NumPoPs: 5, Traffic: TrafficSpec{MeanPopulation: -1}}, "Traffic.MeanPopulation"},
		{"short populations", Config{NumPoPs: 5, Traffic: TrafficSpec{Kind: TrafficFixed, Populations: []float64{1}}}, "Traffic.Populations"},
		{"nonpositive population", Config{NumPoPs: 1, Traffic: TrafficSpec{Kind: TrafficFixed, Populations: []float64{0}}}, "Traffic.Populations"},
		{"tiny ga population", Config{NumPoPs: 5, Optimizer: OptimizerSpec{PopulationSize: 1}}, "Optimizer.PopulationSize"},
		{"negative generations", Config{NumPoPs: 5, Optimizer: OptimizerSpec{Generations: -1}}, "Optimizer.Generations"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if err == nil {
				t.Fatal("Validate should reject this config")
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("errors.Is(err, ErrInvalidConfig) = false for %v", err)
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("errors.As(*FieldError) = false for %v", err)
			}
			found := false
			for _, e := range multiUnwrap(err) {
				var fe *FieldError
				if errors.As(e, &fe) && fe.Field == c.field {
					found = true
				}
			}
			if !found {
				t.Errorf("no FieldError for %q in %v", c.field, err)
			}
		})
	}
}

// multiUnwrap flattens an errors.Join result (or a single error).
func multiUnwrap(err error) []error {
	if m, ok := err.(interface{ Unwrap() []error }); ok {
		return m.Unwrap()
	}
	return []error{err}
}

func TestValidateCollectsAllErrors(t *testing.T) {
	cfg := Config{NumPoPs: -1, Parallelism: -1, Optimizer: OptimizerSpec{Generations: -1}}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("expected errors")
	}
	if n := len(multiUnwrap(err)); n != 3 {
		t.Fatalf("Validate joined %d errors, want 3: %v", n, err)
	}
}

// TestGenerateReturnsTypedErrors: the Generate* entry points surface
// Validate's typed errors, so callers can errors.Is them.
func TestGenerateReturnsTypedErrors(t *testing.T) {
	if _, err := Generate(Config{NumPoPs: 0}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("Generate: errors.Is(err, ErrInvalidConfig) = false for %v", err)
	}
	if _, err := GenerateEnsemble(Config{NumPoPs: -2}, 2); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("GenerateEnsemble: errors.Is(err, ErrInvalidConfig) = false for %v", err)
	}
	if _, err := GenerateVariants(Config{NumPoPs: 5, Traffic: TrafficSpec{Kind: TrafficKind(9)}}, 2); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("GenerateVariants: errors.Is(err, ErrInvalidConfig) = false for %v", err)
	}
}

// TestValidateMirrorsGenerate: Validate accepts exactly what generation
// accepts (tiny GA so the valid cases run fast).
func TestValidateMirrorsGenerate(t *testing.T) {
	tiny := OptimizerSpec{PopulationSize: 6, Generations: 2}
	cases := []Config{
		{NumPoPs: 6, Optimizer: tiny},
		{NumPoPs: 6, Optimizer: tiny, Locations: LocationSpec{Kind: LocClustered, Clusters: 2}},
		{NumPoPs: 6, Optimizer: tiny, Locations: LocationSpec{Kind: LocClustered, Clusters: 6}},
		{NumPoPs: 3, Optimizer: tiny, Locations: LocationSpec{Kind: LocClustered}}, // default 5 clusters > 3 PoPs is fine
		{NumPoPs: 6, Optimizer: tiny, Locations: LocationSpec{Kind: LocClustered, Clusters: 7}},
		{NumPoPs: 4, Optimizer: tiny, Locations: LocationSpec{Kind: LocFixed, Points: []Point{{0, 0}, {1, 0}, {0, 1}, {1, 1}}}},
		{NumPoPs: 4, Optimizer: tiny, Traffic: TrafficSpec{Kind: TrafficFixed, Populations: []float64{1, 2, 3, 4}}},
		{NumPoPs: 0},
		{NumPoPs: 6, Optimizer: tiny, Locations: LocationSpec{Aspect: -2}},
		{NumPoPs: 6, Optimizer: tiny, Traffic: TrafficSpec{Scale: -1}},
	}
	for i, cfg := range cases {
		verr := cfg.Validate()
		_, gerr := Generate(cfg)
		if (verr == nil) != (gerr == nil) {
			t.Errorf("case %d: Validate err = %v but Generate err = %v", i, verr, gerr)
		}
	}
}

// --- Canonical / Hash ---

func TestCanonicalNormalizesDefaults(t *testing.T) {
	implicit := Config{NumPoPs: 12, Seed: 3}
	explicit := Config{
		NumPoPs:   12,
		Seed:      3,
		Params:    DefaultParams(),
		Locations: LocationSpec{Kind: LocUniform, Aspect: 1},
		Traffic:   TrafficSpec{Kind: TrafficExponential, MeanPopulation: 30, Scale: 10},
		Optimizer: OptimizerSpec{PopulationSize: 100, Generations: 100},
	}
	a, err := implicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("explicit defaults must hash identically to implicit zeros")
	}
}

func TestHashIgnoresExecutionFields(t *testing.T) {
	base := Config{NumPoPs: 12, Seed: 3}
	want, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	variants := []Config{
		{NumPoPs: 12, Seed: 3, Parallelism: 8},
		{NumPoPs: 12, Seed: 3, Telemetry: NewTelemetry()},
		// Fields irrelevant to the selected kinds: TestIgnoredFieldsGenerateIdentically.
	}
	for i, v := range variants {
		got, err := v.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("variant %d: execution field changed the hash", i)
		}
	}
}

// TestIgnoredFieldsGenerateIdentically: configs that differ only in fields
// their Kinds ignore hash equally and generate identical networks, so the
// hash alone decides the output. An ignored field is not validated either:
// a LocFixed Aspect of -1 or NaN once passed Validate, shared its twin's
// hash and then failed generation.
func TestIgnoredFieldsGenerateIdentically(t *testing.T) {
	tiny := OptimizerSpec{PopulationSize: 8, Generations: 3}
	pts := []Point{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	fixedLoc := Config{NumPoPs: 4, Seed: 1, Optimizer: tiny,
		Locations: LocationSpec{Kind: LocFixed, Points: pts}}
	fixedTraffic := Config{NumPoPs: 4, Seed: 1, Optimizer: tiny,
		Traffic: TrafficSpec{Kind: TrafficFixed, Populations: []float64{1, 2, 3, 4}}}
	uniform := Config{NumPoPs: 6, Seed: 3, Optimizer: tiny}
	cases := []struct {
		name string
		base Config
		mut  func(*Config)
	}{
		{"LocFixed Aspect -1", fixedLoc, func(c *Config) { c.Locations.Aspect = -1 }},
		{"LocFixed Aspect NaN", fixedLoc, func(c *Config) { c.Locations.Aspect = math.NaN() }},
		{"LocFixed Clusters and Sigma", fixedLoc, func(c *Config) { c.Locations.Clusters, c.Locations.Sigma = 9, -1 }},
		{"LocFixed Points beyond NumPoPs", fixedLoc, func(c *Config) {
			c.Locations.Points = append(pts[:4:4], Point{math.Inf(1), 0})
		}},
		{"TrafficFixed MeanPopulation -1", fixedTraffic, func(c *Config) { c.Traffic.MeanPopulation = -1 }},
		{"TrafficFixed ParetoShape", fixedTraffic, func(c *Config) { c.Traffic.ParetoShape = 0.5 }},
		{"TrafficFixed Populations beyond NumPoPs", fixedTraffic, func(c *Config) {
			c.Traffic.Populations = []float64{1, 2, 3, 4, -5}
		}},
		{"LocUniform Clusters and Sigma", uniform, func(c *Config) { c.Locations.Clusters, c.Locations.Sigma = 7, 0.3 }},
		{"LocUniform Points", uniform, func(c *Config) { c.Locations.Points = pts }},
		{"TrafficExponential ParetoShape", uniform, func(c *Config) { c.Traffic.ParetoShape = 3 }},
		{"TrafficExponential Populations", uniform, func(c *Config) { c.Traffic.Populations = []float64{-1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			twin := tc.base
			tc.mut(&twin)
			want, err := tc.base.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := twin.Hash(); err != nil || got != want {
				t.Fatalf("twin hash %s (err %v), want %s", got, err, want)
			}
			a, err := Generate(tc.base)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Generate(twin)
			if err != nil {
				t.Fatalf("twin with an equal hash fails to generate: %v", err)
			}
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			if !bytes.Equal(ja, jb) {
				t.Fatal("twins with one hash generated different networks")
			}
		})
	}
}

// TestHashChangesWhenAnyFieldChanges: every semantically relevant field
// must perturb the hash.
func TestHashChangesWhenAnyFieldChanges(t *testing.T) {
	base := func() Config {
		return Config{
			NumPoPs: 10,
			Seed:    7,
			Params:  Params{K0: 10, K1: 1, K2: 4e-4, K3: 5},
			Locations: LocationSpec{
				Kind: LocClustered, Aspect: 2, Clusters: 3, Sigma: 0.07,
			},
			Traffic: TrafficSpec{
				Kind: TrafficPareto, MeanPopulation: 25, ParetoShape: 1.4, Scale: 8,
			},
			Optimizer: OptimizerSpec{
				PopulationSize: 30, Generations: 40,
				SeedWithHeuristics: true, TrackHistory: true,
			},
		}
	}
	baseHash, err := base().Hash()
	if err != nil {
		t.Fatal(err)
	}
	muts := []struct {
		name string
		mut  func(*Config)
	}{
		{"NumPoPs", func(c *Config) { c.NumPoPs = 11 }},
		{"Seed", func(c *Config) { c.Seed = 8 }},
		{"Params.K0", func(c *Config) { c.Params.K0 = 11 }},
		{"Params.K1", func(c *Config) { c.Params.K1 = 2 }},
		{"Params.K2", func(c *Config) { c.Params.K2 = 5e-4 }},
		{"Params.K3", func(c *Config) { c.Params.K3 = 6 }},
		{"Locations.Kind", func(c *Config) { c.Locations.Kind = LocGrid }},
		{"Locations.Aspect", func(c *Config) { c.Locations.Aspect = 3 }},
		{"Locations.Clusters", func(c *Config) { c.Locations.Clusters = 4 }},
		{"Locations.Sigma", func(c *Config) { c.Locations.Sigma = 0.08 }},
		{"Traffic.Kind", func(c *Config) { c.Traffic.Kind = TrafficUniform }},
		{"Traffic.MeanPopulation", func(c *Config) { c.Traffic.MeanPopulation = 26 }},
		{"Traffic.ParetoShape", func(c *Config) { c.Traffic.ParetoShape = 1.5 }},
		{"Traffic.Scale", func(c *Config) { c.Traffic.Scale = 9 }},
		{"Optimizer.PopulationSize", func(c *Config) { c.Optimizer.PopulationSize = 32 }},
		{"Optimizer.Generations", func(c *Config) { c.Optimizer.Generations = 41 }},
		{"Optimizer.SeedWithHeuristics", func(c *Config) { c.Optimizer.SeedWithHeuristics = false }},
		{"Optimizer.TrackHistory", func(c *Config) { c.Optimizer.TrackHistory = false }},
	}
	seen := map[string]string{baseHash: "base"}
	for _, m := range muts {
		cfg := base()
		m.mut(&cfg)
		h, err := cfg.Hash()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("mutating %s collides with %s", m.name, prev)
		}
		seen[h] = m.name
	}

	// Fixed points and populations matter too.
	fixed := Config{
		NumPoPs:   3,
		Seed:      1,
		Locations: LocationSpec{Kind: LocFixed, Points: []Point{{0, 0}, {1, 0}, {0, 1}}},
		Traffic:   TrafficSpec{Kind: TrafficFixed, Populations: []float64{1, 2, 3}},
	}
	h1, err := fixed.Hash()
	if err != nil {
		t.Fatal(err)
	}
	fixed.Locations.Points = []Point{{0, 0}, {1, 0}, {0, 2}}
	h2, err := fixed.Hash()
	if err != nil {
		t.Fatal(err)
	}
	fixed.Traffic.Populations = []float64{1, 2, 4}
	h3, err := fixed.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 || h2 == h3 || h1 == h3 {
		t.Error("fixed points/populations must perturb the hash")
	}
	// ...but trailing entries beyond NumPoPs must not.
	fixed.Traffic.Populations = []float64{1, 2, 4, 99}
	h4, err := fixed.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h4 != h3 {
		t.Error("populations beyond NumPoPs must not perturb the hash")
	}
}

func TestHashInvalidConfig(t *testing.T) {
	if _, err := (Config{}).Hash(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("Hash of invalid config: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := (Config{}).Canonical(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("Canonical of invalid config: err = %v, want ErrInvalidConfig", err)
	}
}

func TestCanonicalIsDeterministicJSON(t *testing.T) {
	cfg := goldenConfigs(1)["clustered"]
	a, err := cfg.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("Canonical must be byte-deterministic")
	}
	var decoded map[string]any
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("Canonical is not valid JSON: %v", err)
	}
	if v, ok := decoded["v"].(float64); !ok || int(v) != ConfigSchemaVersion {
		t.Errorf("canonical v = %v, want %d", decoded["v"], ConfigSchemaVersion)
	}
}

// TestGoldenConfigHashes pins Hash() for the golden-fixture configs: the
// hash is a documented stability contract (cache keys survive restarts and
// deployments), so any drift must be deliberate — bless it together with
// a ConfigSchemaVersion review via:
//
//	go test . -run TestGoldenConfigHashes -update
func TestGoldenConfigHashes(t *testing.T) {
	path := filepath.Join("results", "golden", "config_hashes.json")
	got := map[string]string{}
	for _, name := range []string{"default", "clustered"} {
		for _, seed := range goldenSeeds[name] {
			cfg := goldenConfigs(seed)[name]
			h, err := cfg.Hash()
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("%s_seed%d", name, seed)] = h
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden hash fixture %s (regenerate with -update): %v", path, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d hashes, want %d", len(want), len(got))
	}
	for k, h := range got {
		if want[k] != h {
			t.Errorf("%s: hash %s differs from fixture %s\n"+
				"Config.Hash() is a stability contract: if this change is intentional, "+
				"review ConfigSchemaVersion and regenerate with -update.", k, h, want[k])
		}
	}
}
