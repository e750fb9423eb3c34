package cold

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

func fastConfig(n int, seed int64) Config {
	return Config{
		NumPoPs: n,
		Seed:    seed,
		Optimizer: OptimizerSpec{
			PopulationSize: 30,
			Generations:    25,
		},
	}
}

func TestGenerateBasic(t *testing.T) {
	nw, err := Generate(fastConfig(12, 1))
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 12 || len(nw.Points) != 12 || len(nw.Populations) != 12 {
		t.Fatalf("sizes wrong: %d PoPs, %d points", nw.N(), len(nw.Points))
	}
	if len(nw.Links) < 11 {
		t.Fatalf("connected network needs >= 11 links, got %d", len(nw.Links))
	}
	st := nw.Stats()
	if st.NumPoPs != 12 || st.NumLinks != len(nw.Links) {
		t.Fatalf("stats inconsistent: %+v", st)
	}
	if st.Diameter < 1 {
		t.Fatalf("diameter %d implausible", st.Diameter)
	}
	if nw.Cost.Total <= 0 || math.IsInf(nw.Cost.Total, 1) {
		t.Fatalf("cost %v implausible", nw.Cost.Total)
	}
	sum := nw.Cost.Existence + nw.Cost.Length + nw.Cost.Bandwidth + nw.Cost.Node
	if math.Abs(sum-nw.Cost.Total) > 1e-9*nw.Cost.Total {
		t.Fatalf("cost breakdown %v does not sum to total %v", sum, nw.Cost.Total)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(fastConfig(10, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(fastConfig(10, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost.Total != b.Cost.Total || len(a.Links) != len(b.Links) {
		t.Fatal("same config+seed must reproduce the same network")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatal("links differ between identical runs")
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a, _ := Generate(fastConfig(10, 1))
	b, _ := Generate(fastConfig(10, 2))
	same := len(a.Links) == len(b.Links)
	if same {
		for i := range a.Links {
			if a.Links[i] != b.Links[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical networks (suspicious)")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{NumPoPs: 0}); err == nil {
		t.Error("NumPoPs 0 should error")
	}
	cfg := fastConfig(5, 1)
	cfg.Locations = LocationSpec{Kind: LocFixed, Points: []Point{{0, 0}}}
	if _, err := Generate(cfg); err == nil {
		t.Error("insufficient fixed points should error")
	}
	cfg = fastConfig(5, 1)
	cfg.Traffic = TrafficSpec{Kind: TrafficPareto, ParetoShape: 0.9}
	if _, err := Generate(cfg); err == nil {
		t.Error("Pareto shape <= 1 should error")
	}
	cfg = fastConfig(5, 1)
	cfg.Locations.Aspect = -2
	if _, err := Generate(cfg); err == nil {
		t.Error("negative aspect should error")
	}
	cfg = fastConfig(5, 1)
	cfg.Locations.Kind = LocationKind(99)
	if _, err := Generate(cfg); err == nil {
		t.Error("unknown location kind should error")
	}
	cfg = fastConfig(5, 1)
	cfg.Traffic.Kind = TrafficKind(99)
	if _, err := Generate(cfg); err == nil {
		t.Error("unknown traffic kind should error")
	}
	cfg = fastConfig(5, 1)
	cfg.Params = Params{K0: -1, K1: 1}
	if _, err := Generate(cfg); err == nil {
		t.Error("negative cost should error")
	}
}

func TestLocationKinds(t *testing.T) {
	for _, kind := range []LocationKind{LocUniform, LocClustered, LocGrid} {
		cfg := fastConfig(9, 3)
		cfg.Locations.Kind = kind
		nw, err := Generate(cfg)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if nw.N() != 9 {
			t.Fatalf("kind %d: n = %d", kind, nw.N())
		}
	}
	cfg := fastConfig(4, 3)
	cfg.Locations = LocationSpec{Kind: LocFixed, Points: []Point{{0.1, 0.1}, {0.9, 0.1}, {0.9, 0.9}, {0.1, 0.9}}}
	nw, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Points[2] != (Point{0.9, 0.9}) {
		t.Error("fixed points not respected")
	}
}

func TestTrafficKinds(t *testing.T) {
	for _, kind := range []TrafficKind{TrafficExponential, TrafficPareto, TrafficUniform} {
		cfg := fastConfig(8, 5)
		cfg.Traffic.Kind = kind
		nw, err := Generate(cfg)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		for _, p := range nw.Populations {
			if p <= 0 {
				t.Fatalf("kind %d: non-positive population %v", kind, p)
			}
		}
	}
}

func TestHasLinkAndPath(t *testing.T) {
	nw, err := Generate(fastConfig(10, 11))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range nw.Links {
		if !nw.HasLink(l.A, l.B) || !nw.HasLink(l.B, l.A) {
			t.Fatal("HasLink inconsistent with Links")
		}
	}
	// Paths exist between all pairs and respect adjacency.
	for s := 0; s < nw.N(); s++ {
		for d := 0; d < nw.N(); d++ {
			p := nw.Path(s, d)
			if len(p) == 0 {
				t.Fatalf("no path %d -> %d", s, d)
			}
			if p[0] != s || p[len(p)-1] != d {
				t.Fatalf("path endpoints wrong: %v", p)
			}
			for i := 0; i+1 < len(p); i++ {
				if !nw.HasLink(p[i], p[i+1]) {
					t.Fatalf("path %v uses missing link (%d,%d)", p, p[i], p[i+1])
				}
			}
		}
	}
}

func TestK3ProducesHubAndSpoke(t *testing.T) {
	cfg := fastConfig(15, 21)
	cfg.Params = Params{K0: 10, K1: 1, K2: 1e-5, K3: 1000}
	nw, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.Hubs > 3 {
		t.Errorf("huge k3 should give few hubs, got %d", st.Hubs)
	}
	if st.DegreeCV < 1 {
		t.Errorf("huge k3 should give CVND > 1, got %v", st.DegreeCV)
	}
}

func TestK2ProducesMesh(t *testing.T) {
	cfg := fastConfig(12, 23)
	cfg.Params = Params{K0: 10, K1: 1, K2: 0.05, K3: 0}
	meshy, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Params = Params{K0: 10, K1: 1, K2: 1e-6, K3: 0}
	sparse, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if meshy.Stats().AverageDegree <= sparse.Stats().AverageDegree {
		t.Errorf("k2=0.05 degree %v should exceed k2=1e-6 degree %v",
			meshy.Stats().AverageDegree, sparse.Stats().AverageDegree)
	}
}

func TestSeedWithHeuristics(t *testing.T) {
	cfg := fastConfig(12, 31)
	cfg.Params = Params{K0: 10, K1: 1, K2: 1e-4, K3: 50}
	plain, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Optimizer.SeedWithHeuristics = true
	seeded, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Cost.Total > plain.Cost.Total+1e-9 {
		t.Errorf("initialised GA (%v) worse than plain GA (%v)", seeded.Cost.Total, plain.Cost.Total)
	}
}

func TestTrackHistory(t *testing.T) {
	cfg := fastConfig(10, 33)
	cfg.Optimizer.TrackHistory = true
	nw, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.History) != 25 {
		t.Fatalf("history length %d, want 25", len(nw.History))
	}
	for i := 1; i < len(nw.History); i++ {
		if nw.History[i] > nw.History[i-1]+1e-9 {
			t.Fatal("history must be non-increasing")
		}
	}
}

func TestGenerateEnsemble(t *testing.T) {
	nets, err := GenerateEnsemble(fastConfig(8, 41), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 5 {
		t.Fatalf("got %d networks", len(nets))
	}
	// Networks are distinct by construction (different contexts).
	for i := 1; i < len(nets); i++ {
		if nets[i].Cost.Total == nets[0].Cost.Total {
			t.Errorf("members 0 and %d share identical cost (suspicious)", i)
		}
	}
	if _, err := GenerateEnsemble(fastConfig(8, 1), -1); err == nil {
		t.Error("negative count should error")
	}
	empty, err := GenerateEnsemble(fastConfig(8, 1), 0)
	if err != nil || len(empty) != 0 {
		t.Error("zero count mishandled")
	}
}

func TestGenerateEnsembleStreamOrderAndEquivalence(t *testing.T) {
	// Stream emission must be in replica order and produce exactly the
	// networks GenerateEnsemble returns, for both the serial and the
	// parallel path.
	for _, par := range []int{1, 4} {
		cfg := fastConfig(8, 41)
		cfg.Parallelism = par
		want, err := GenerateEnsemble(cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		var got []*Network
		err = GenerateEnsembleStream(context.Background(), cfg, 5, func(i int, nw *Network) error {
			if i != len(got) {
				t.Fatalf("parallelism %d: emitted index %d, want %d (out of order)", par, i, len(got))
			}
			got = append(got, nw)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: streamed %d networks, want %d", par, len(got), len(want))
		}
		for i := range want {
			if got[i].Cost.Total != want[i].Cost.Total || len(got[i].Links) != len(want[i].Links) {
				t.Errorf("parallelism %d: member %d differs from GenerateEnsemble", par, i)
			}
		}
	}
}

func TestGenerateEnsembleStreamEmitError(t *testing.T) {
	// An emit error must stop the stream, cancel remaining work, and be
	// returned verbatim.
	sentinel := errors.New("sink full")
	for _, par := range []int{1, 4} {
		cfg := fastConfig(8, 41)
		cfg.Parallelism = par
		emitted := 0
		err := GenerateEnsembleStream(context.Background(), cfg, 6, func(i int, nw *Network) error {
			emitted++
			if i == 1 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("parallelism %d: err = %v, want sentinel", par, err)
		}
		if emitted != 2 {
			t.Errorf("parallelism %d: emit called %d times after error, want 2", par, emitted)
		}
	}
}

func TestGenerateEnsembleStreamFromSuffix(t *testing.T) {
	// Resuming at replica `start` must emit exactly replicas start..count-1,
	// in order, bit-identical to the corresponding suffix of a from-zero
	// run — per-replica seeds depend only on (Seed, index), never on the
	// replicas generated before them.
	const count = 6
	for _, par := range []int{1, 4} {
		cfg := fastConfig(8, 41)
		cfg.Parallelism = par
		var full [][]byte
		err := GenerateEnsembleStream(context.Background(), cfg, count, func(i int, nw *Network) error {
			b, err := json.Marshal(nw)
			if err != nil {
				return err
			}
			full = append(full, b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, start := range []int{0, 2, 5, 6} {
			next := start
			err := GenerateEnsembleStreamFrom(context.Background(), cfg, count, start, func(i int, nw *Network) error {
				if i != next {
					t.Fatalf("parallelism %d start %d: emitted index %d, want %d", par, start, i, next)
				}
				next++
				b, err := json.Marshal(nw)
				if err != nil {
					return err
				}
				if !bytes.Equal(b, full[i]) {
					t.Errorf("parallelism %d start %d: replica %d differs from from-zero run", par, start, i)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if next != count {
				t.Fatalf("parallelism %d start %d: emitted %d replicas, want %d", par, start, next-start, count-start)
			}
		}
	}
}

func TestGenerateEnsembleStreamFromValidation(t *testing.T) {
	cfg := fastConfig(8, 41)
	emit := func(i int, nw *Network) error { return nil }
	if err := GenerateEnsembleStreamFrom(context.Background(), cfg, 4, -1, emit); err == nil {
		t.Error("negative start should error")
	}
	if err := GenerateEnsembleStreamFrom(context.Background(), cfg, 4, 5, emit); err == nil {
		t.Error("start beyond count should error")
	}
	called := false
	err := GenerateEnsembleStreamFrom(context.Background(), cfg, 4, 4, func(i int, nw *Network) error {
		called = true
		return nil
	})
	if err != nil || called {
		t.Errorf("start == count must be a successful no-op (err %v, called %v)", err, called)
	}
}

func TestCapacitiesCarryTraffic(t *testing.T) {
	// Sum of capacity×length must equal the routed demand-weighted path
	// lengths; indirectly verify capacities are positive and plausible.
	nw, err := Generate(fastConfig(10, 43))
	if err != nil {
		t.Fatal(err)
	}
	var totalDemand float64
	for i := range nw.Demand {
		for j := i + 1; j < len(nw.Demand); j++ {
			totalDemand += nw.Demand[i][j]
		}
	}
	var maxCap float64
	for _, l := range nw.Links {
		if l.Capacity < 0 {
			t.Fatalf("negative capacity on link %+v", l)
		}
		if l.Capacity > totalDemand+1e-6 {
			t.Fatalf("capacity %v exceeds total demand %v", l.Capacity, totalDemand)
		}
		if l.Capacity > maxCap {
			maxCap = l.Capacity
		}
	}
	if maxCap == 0 {
		t.Fatal("all capacities zero")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	nw, err := Generate(fastConfig(8, 51))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(nw)
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != nw.N() || len(back.Links) != len(nw.Links) {
		t.Fatal("round trip lost structure")
	}
	if back.Cost.Total != nw.Cost.Total {
		t.Fatal("round trip lost cost")
	}
	for i := range nw.Links {
		if back.Links[i] != nw.Links[i] {
			t.Fatal("round trip lost links")
		}
	}
	if !back.HasLink(nw.Links[0].A, nw.Links[0].B) {
		t.Fatal("adjacency not rebuilt after decode")
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	var nw Network
	if err := json.Unmarshal([]byte(`{"points":[{"X":0,"Y":0}],"links":[{"A":0,"B":5}]}`), &nw); err == nil {
		t.Error("out-of-range link should fail decode")
	}
	if err := json.Unmarshal([]byte(`{`), &nw); err == nil {
		t.Error("syntax error should fail decode")
	}
}

func TestExportDOT(t *testing.T) {
	nw, err := Generate(fastConfig(6, 61))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nw.Export(&buf, ExportDOT); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "graph cold {") || !strings.Contains(out, "--") {
		t.Errorf("DOT output malformed:\n%s", out)
	}
}

func TestExportTSV(t *testing.T) {
	nw, err := Generate(fastConfig(6, 63))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nw.Export(&buf, ExportTSV); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(nw.Links)+1 {
		t.Errorf("TSV has %d lines for %d links", len(lines), len(nw.Links))
	}
	if lines[0] != "a\tb\tlength\tcapacity" {
		t.Errorf("TSV header = %q", lines[0])
	}
}

func TestDefaultParamsApplied(t *testing.T) {
	// Zero-value Params must behave as DefaultParams, not all-zero costs
	// (all-zero costs would make every connected graph cost 0).
	nw, err := Generate(fastConfig(8, 71))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Cost.Total == 0 {
		t.Error("zero Params should fall back to defaults")
	}
}

func TestGenerateVariants(t *testing.T) {
	cfg := fastConfig(10, 81)
	nets, err := GenerateVariants(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) == 0 {
		t.Fatal("no variants")
	}
	// First variant equals Generate's result.
	single, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nets[0].Cost.Total != single.Cost.Total || len(nets[0].Links) != len(single.Links) {
		t.Error("first variant should equal Generate's network")
	}
	// Ascending cost, identical context, pairwise distinct link sets.
	for i, nw := range nets {
		if nw.N() != 10 {
			t.Fatalf("variant %d has %d PoPs", i, nw.N())
		}
		if i > 0 && nw.Cost.Total < nets[i-1].Cost.Total-1e-9 {
			t.Error("variants not in ascending cost order")
		}
		for j := range nw.Points {
			if nw.Points[j] != nets[0].Points[j] {
				t.Fatal("variants must share the context (points differ)")
			}
			if nw.Populations[j] != nets[0].Populations[j] {
				t.Fatal("variants must share the context (populations differ)")
			}
		}
		for k := 0; k < i; k++ {
			if len(nets[k].Links) == len(nw.Links) {
				same := true
				for li := range nw.Links {
					if nets[k].Links[li].A != nw.Links[li].A || nets[k].Links[li].B != nw.Links[li].B {
						same = false
						break
					}
				}
				if same {
					t.Fatalf("variants %d and %d share a topology", k, i)
				}
			}
		}
	}
}

func TestGenerateVariantsErrors(t *testing.T) {
	if _, err := GenerateVariants(fastConfig(8, 1), 0); err == nil {
		t.Error("count 0 should error")
	}
	if _, err := GenerateVariants(Config{NumPoPs: 0}, 3); err == nil {
		t.Error("bad config should error")
	}
}

// overflowRepros are configs that pass Validate but whose every candidate
// topology has a non-finite cost: a huge k2, PoP coordinates whose
// distance overflows (with k1 = 0, so the sum hits 0·Inf = NaN), huge
// fixed populations, and a huge gravity scale. Generation must reject them
// with ErrInvalidConfig rather than panic in the GA's weighted draws or,
// with SeedWithHeuristics, in the heuristics, where no star has a finite
// cost.
var overflowRepros = []string{
	`{"NumPoPs":10,"Seed":1,"Params":{"K0":10,"K1":1,"K2":1e306,"K3":1},"Optimizer":{"PopulationSize":10,"Generations":5}}`,
	`{"NumPoPs":2,"Params":{"K0":10,"K1":0,"K2":0.0001,"K3":0},"Locations":{"Kind":3,"Points":[{"X":1e308,"Y":0},{"X":-1e308,"Y":0}]},"Optimizer":{"PopulationSize":10,"Generations":5}}`,
	`{"NumPoPs":4,"Traffic":{"Kind":3,"Populations":[1e300,1e300,1e300,1e300]},"Optimizer":{"PopulationSize":10,"Generations":5}}`,
	`{"NumPoPs":6,"Traffic":{"Scale":1e308},"Optimizer":{"PopulationSize":10,"Generations":5}}`,
}

func TestOverflowingConfigsAreInvalid(t *testing.T) {
	for i, body := range overflowRepros {
		var cfg Config
		if err := json.Unmarshal([]byte(body), &cfg); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("repro %d: Validate rejected it (%v); the repro no longer exercises generation", i, err)
		}
		for _, heur := range []bool{false, true} {
			cfg.Optimizer.SeedWithHeuristics = heur
			if _, err := Generate(cfg); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("repro %d (heuristics %v): Generate err = %v, want ErrInvalidConfig", i, heur, err)
			}
			if _, err := GenerateEnsemble(cfg, 2); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("repro %d (heuristics %v): GenerateEnsemble err = %v, want ErrInvalidConfig", i, heur, err)
			}
			if _, err := GenerateVariants(cfg, 2); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("repro %d (heuristics %v): GenerateVariants err = %v, want ErrInvalidConfig", i, heur, err)
			}
		}
	}
}
