package stats

import (
	"math"
	"testing"
)

// TestRNGReferenceSequence pins the generator to the published SplitMix64
// test vector: seeding with 0 must reproduce the reference outputs, so the
// per-offspring GA streams are stable across releases and platforms.
func TestRNGReferenceSequence(t *testing.T) {
	want := []uint64{
		0xE220A8397B1DCDAF,
		0x6E789E6AA1B965F4,
		0x06C45D188009454F,
		0xF88BB8A8724C81EC,
		0x1B39896A51A8749B,
	}
	r := NewRNG(0)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("output %d = %#016x, want %#016x", i, got, w)
		}
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical seeds diverged")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 || math.IsNaN(f) {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

// TestIntnUniform: every residue of a non-power-of-two bound must appear
// with near-equal frequency (the rejection step removes modulo bias).
func TestIntnUniform(t *testing.T) {
	r := NewRNG(99)
	const n, draws = 6, 60000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		counts[v]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("residue %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestIntnPowerOfTwoAndOne(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(8); v < 0 || v >= 8 {
			t.Fatalf("Intn(8) = %d", v)
		}
		if v := r.Intn(1); v != 0 {
			t.Fatalf("Intn(1) = %d, want 0", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r := NewRNG(1)
	r.Intn(0)
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRNG(17)
	xs := make([]int, 50)
	for i := range xs {
		xs[i] = i
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, x := range xs {
		if x < 0 || x >= len(xs) || seen[x] {
			t.Fatalf("shuffle broke the permutation at %d", x)
		}
		seen[x] = true
	}
}

// TestStreamSeedDistinct: seeds derived for every (base, generation, slot)
// triple a realistic GA touches must be pairwise distinct — stream overlap
// would correlate offspring that are supposed to be independent.
func TestStreamSeedDistinct(t *testing.T) {
	seen := make(map[uint64][3]uint64)
	for _, base := range []uint64{0, 1, 2, 1 << 40, ^uint64(0)} {
		for gen := uint64(0); gen < 30; gen++ {
			for slot := uint64(0); slot < 120; slot++ {
				s := StreamSeed(base, gen, slot)
				if prev, dup := seen[s]; dup {
					t.Fatalf("StreamSeed collision: (%d,%d,%d) and %v -> %#x",
						base, gen, slot, prev, s)
				}
				seen[s] = [3]uint64{base, gen, slot}
			}
		}
	}
}

// TestStreamSeedNoAdditiveRelation: the hashed derivation must not inherit
// the additive collision family of the old replica scheme, where
// seed+i*K shifted across ensembles (derive(s, i+d) == derive(s+d*K, i)).
func TestStreamSeedNoAdditiveRelation(t *testing.T) {
	const k = 0x5851F42D4C957F2D
	for _, s := range []uint64{1, 42, 1 << 33} {
		for d := uint64(1); d < 4; d++ {
			for i := uint64(0); i < 8; i++ {
				if StreamSeed(s, i+d) == StreamSeed(s+d*k, i) {
					t.Fatalf("additive collision at s=%d d=%d i=%d", s, d, i)
				}
			}
		}
	}
}

// TestStreamSeedOrderSensitive: coordinates are positional — swapping
// generation and slot must change the stream.
func TestStreamSeedOrderSensitive(t *testing.T) {
	if StreamSeed(9, 3, 5) == StreamSeed(9, 5, 3) {
		t.Fatal("StreamSeed ignores coordinate order")
	}
	if StreamSeed(9) == StreamSeed(9, 0) {
		t.Fatal("StreamSeed ignores coordinate count")
	}
}

// TestGeometricAcceptsRNG: the variate helpers take any Source; check the
// geometric mean (1-p)/p holds when driven by the SplitMix64 stream.
func TestGeometricAcceptsRNG(t *testing.T) {
	r := NewRNG(123)
	const trials = 50000
	total := 0
	for i := 0; i < trials; i++ {
		total += Geometric(0.5, &r)
	}
	if mean := float64(total) / trials; math.Abs(mean-1) > 0.05 {
		t.Errorf("geometric(0.5) mean = %v, want ~1", mean)
	}
}

// TestWeightedIndexAcceptsRNG: proportional selection under the SplitMix64
// stream.
func TestWeightedIndexAcceptsRNG(t *testing.T) {
	r := NewRNG(321)
	weights := []float64{1, 3}
	const trials = 40000
	hits := 0
	for i := 0; i < trials; i++ {
		if WeightedIndex(weights, &r) == 1 {
			hits++
		}
	}
	if frac := float64(hits) / trials; math.Abs(frac-0.75) > 0.02 {
		t.Errorf("weight-3 index drawn %.3f of the time, want ~0.75", frac)
	}
}

// TestFloat64sMatchesFloat64: a bulk fill draws the same values and
// leaves the same state as one Float64 call per element.
func TestFloat64sMatchesFloat64(t *testing.T) {
	for _, size := range []int{0, 1, 2, 63, 64, 129} {
		a, b := NewRNG(uint64(size)*7+1), NewRNG(uint64(size)*7+1)
		dst := make([]float64, size)
		a.Float64s(dst)
		for i, got := range dst {
			if want := b.Float64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("size %d: element %d = %v, want %v", size, i, got, want)
			}
		}
		if a != b {
			t.Fatalf("size %d: state after the fill differs from %d Float64 calls", size, size)
		}
	}
}
