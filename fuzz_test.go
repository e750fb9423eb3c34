package cold

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// FuzzConfig drives untrusted config JSON through the validation boundary,
// decoded the way cmd/coldd decodes request bodies (DisallowUnknownFields).
// Validate, Canonical and Hash must never panic, must agree on acceptance,
// must reject only with ErrInvalidConfig, and Hash must be deterministic.
// An accepted config small enough to sample cheaply must also build its
// synthesis context — Validate's contract is that generation accepts
// exactly what it accepts, so no allocation bomb may slip past it. An
// accepted config with at most 12 PoPs is also generated, with the
// optimizer clamped to a population of 4 over 2 generations: generation
// must either reject it with ErrInvalidConfig (every cost overflows) or
// return a network of finite cost that marshals to JSON.
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
		`{"NumPoPs":1}`,
		// Fields their Kind ignores; both once passed Validate and then
		// failed generation.
		`{"NumPoPs":4,"Seed":1,"Locations":{"Kind":3,"Aspect":-1,"Points":[{"X":0,"Y":0},{"X":1,"Y":0},{"X":0,"Y":1},{"X":1,"Y":1}]}}`,
		`{"NumPoPs":4,"Seed":1,"Traffic":{"Kind":3,"MeanPopulation":-1,"Populations":[1,2,3,4]}}`,
	} {
		f.Add([]byte(seed))
	}
	for _, seed := range overflowRepros {
		f.Add([]byte(seed))
	}
	// An overflowing context under the initialised GA: no star has a
	// finite cost.
	f.Add([]byte(`{"NumPoPs":10,"Seed":1,"Params":{"K0":10,"K1":1,"K2":1e306,"K3":1},"Optimizer":{"PopulationSize":10,"Generations":5,"SeedWithHeuristics":true}}`))
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
		nc, err := cfg.normalize()
		if err != nil {
			t.Fatalf("Validate accepted a config normalize rejects: %v", err)
		}
		if _, err := buildContext(nc); err != nil {
			t.Fatalf("Validate accepted a config buildContext rejects: %v", err)
		}
		if cfg.NumPoPs > 12 {
			return
		}
		// coldd owns Parallelism and Telemetry, whatever the body says.
		cfg.Parallelism, cfg.Telemetry = 1, nil
		cfg.Optimizer.PopulationSize, cfg.Optimizer.Generations = 4, 2
		nw, err := Generate(cfg)
		if err != nil {
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("Generate of an accepted config failed without ErrInvalidConfig: %v", err)
			}
			return
		}
		if math.IsInf(nw.Cost.Total, 0) || math.IsNaN(nw.Cost.Total) {
			t.Fatalf("Generate returned a network of cost %v", nw.Cost.Total)
		}
		if _, err := json.Marshal(nw); err != nil {
			t.Fatalf("generated network does not marshal: %v", err)
		}
	})
}

// FuzzNetworkJSON builds a Network from the fuzz bytes and requires
// MarshalJSON to agree with the reflection oracle (marshalOracle) on the
// bytes and on whether an error is returned. The bytes choose nil or
// empty slices, float bit patterns (NaN, ±Inf, -0, subnormals and values
// either side of encoding/json's 1e-6 and 1e21 format switches) and a
// demand matrix with nil rows, ragged rows and entries equal to or
// different from their mirror.
//
// Run a real session with:
//
//	go test . -run '^$' -fuzz FuzzNetworkJSON -fuzztime 1m
func FuzzNetworkJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 0, 4, 0, 5, 3, 3, 7, 7, 7, 2, 0, 9, 3, 1, 2})
	f.Add([]byte{4, 0, 0, 0, 1, 0, 2, 0, 3, 0, 8, 0, 10, 0, 11, 4, 7, 5, 3, 2, 6})
	f.Add(bytes.Repeat([]byte{5, 1, 0xff, 0xf8, 0, 0, 0, 0, 0, 0, 0}, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzBytes(data)
		nw := &Network{}
		if n, ok := r.length(); ok {
			nw.Points = make([]Point, n)
			for i := range nw.Points {
				nw.Points[i] = Point{r.float(), r.float()}
			}
		}
		nw.Populations = r.floats()
		if n, ok := r.length(); ok {
			nw.Demand = make([][]float64, n)
			for i := range nw.Demand {
				if r.byte()%6 == 0 {
					continue // nil row
				}
				row := make([]float64, max(0, n+int(r.byte()%3)-1))
				for j := range row {
					if j < i && i < len(nw.Demand[j]) && r.byte()%4 != 0 {
						row[j] = nw.Demand[j][i]
					} else {
						row[j] = r.float()
					}
				}
				nw.Demand[i] = row
			}
		}
		if n, ok := r.length(); ok {
			nw.Links = make([]Link, n)
			for i := range nw.Links {
				nw.Links[i] = Link{A: r.int(), B: r.int(), Length: r.float(), Capacity: r.float()}
			}
		}
		nw.Cost = CostBreakdown{r.float(), r.float(), r.float(), r.float(), r.float()}
		nw.stats.NumPoPs, nw.stats.NumLinks, nw.stats.Diameter = r.int(), r.int(), r.int()
		nw.stats.Hubs, nw.stats.Leaves = r.int(), r.int()
		nw.stats.AverageDegree, nw.stats.DegreeCV = r.float(), r.float()
		nw.stats.Clustering, nw.stats.AvgPathLen = r.float(), r.float()
		nw.History = r.floats()
		checkAgainstOracle(t, nw)
	})
}

// fuzzBytes hands out fuzz input piece by piece, reading zeros once the
// input is used up.
type fuzzBytes []byte

func (r *fuzzBytes) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *fuzzBytes) uint64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = r.byte()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// length returns a slice length below 6, or false for a nil slice.
func (r *fuzzBytes) length() (int, bool) {
	b := r.byte()
	return int(b/7) % 6, b%7 != 0
}

func (r *fuzzBytes) int() int { return int(int32(uint32(r.uint64()))) }

// fuzzFloats are the values at and around the points where encoding/json
// changes float format or rejects a float.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e21, math.Nextafter(1e21, 0), -1e21,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3,
	math.MaxFloat64, 1e-7, 1.5e-300, 123456789.125, 0.1, 1,
}

func (r *fuzzBytes) float() float64 {
	switch b := r.byte(); b % 4 {
	case 0:
		return fuzzFloats[int(b/4)%len(fuzzFloats)]
	case 1:
		return math.Float64frombits(r.uint64())
	case 2:
		return float64(int8(b)) / 8
	default:
		return float64(r.uint64()>>11) / (1 << 20)
	}
}

func (r *fuzzBytes) floats() []float64 {
	n, ok := r.length()
	if !ok {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.float()
	}
	return xs
}
