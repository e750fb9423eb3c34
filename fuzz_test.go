package cold

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzConfig drives untrusted config JSON through the validation boundary,
// decoded the way cmd/coldd decodes request bodies (DisallowUnknownFields).
// Validate, Canonical and Hash must never panic, must agree on acceptance,
// must reject only with ErrInvalidConfig, and Hash must be deterministic.
// An accepted config small enough to sample cheaply must also build its
// synthesis context — Validate's contract is that generation accepts
// exactly what it accepts, so no allocation bomb may slip past it.
//
// Run a real session with:
//
//	go test . -run '^$' -fuzz FuzzConfig -fuzztime 1m
func FuzzConfig(f *testing.F) {
	for _, seed := range []string{
		`{"NumPoPs":10,"Locations":{"Kind":1,"Clusters":4611686018427387904}}`,
		`{"NumPoPs":10,"Optimizer":{"PopulationSize":4611686018427387904}}`,
		`{"NumPoPs":12,"Seed":3,"Params":{"K0":10,"K1":1,"K2":0.0004,"K3":5}}`,
		`{"NumPoPs":8,"Locations":{"Kind":1,"Aspect":2,"Clusters":3,"Sigma":0.07},"Traffic":{"Kind":1,"MeanPopulation":25,"ParetoShape":1.4,"Scale":8}}`,
		`{"NumPoPs":2,"Locations":{"Kind":3,"Points":[{"X":0,"Y":0},{"X":1,"Y":1}]},"Traffic":{"Kind":3,"Populations":[1,2]}}`,
		`{"NumPoPs":0}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var cfg Config
		if err := dec.Decode(&cfg); err != nil {
			return
		}
		verr := cfg.Validate()
		_, cerr := cfg.Canonical()
		h1, herr := cfg.Hash()
		for _, err := range []error{verr, cerr, herr} {
			if err != nil && !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("rejection does not match ErrInvalidConfig: %v", err)
			}
		}
		if (verr == nil) != (cerr == nil) || (verr == nil) != (herr == nil) {
			t.Fatalf("Validate/Canonical/Hash disagree: %v / %v / %v", verr, cerr, herr)
		}
		if verr != nil {
			return
		}
		if h2, _ := cfg.Hash(); h2 != h1 {
			t.Fatalf("Hash not deterministic: %s then %s", h1, h2)
		}
		if cfg.NumPoPs > 64 {
			return
		}
		if _, err := buildContext(cfg); err != nil {
			t.Fatalf("Validate accepted a config buildContext rejects: %v", err)
		}
	})
}
