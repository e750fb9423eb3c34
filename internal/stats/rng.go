package stats

// Counter-based pseudo-random streams for the deterministic-parallel GA.
//
// The genetic algorithm gives every offspring slot of every generation its
// own independent random stream, seeded by hashing (run seed, generation,
// slot) through SplitMix64. Streams derived this way are order-independent:
// an offspring's randomness depends only on its coordinates, never on which
// goroutine constructs it or in what order, which is what makes parallel
// breeding bit-identical to serial. The same derivation keys ensemble
// replica seeds, where the previous additive scheme (seed + i*K) silently
// shared members between ensembles with overlapping bases.

import "fmt"

// golden is the SplitMix64 increment, 2^64 / φ rounded to odd.
const golden = 0x9E3779B97F4A7C15

// Mix64 is the SplitMix64 finalizer: a fast bijective mixer whose outputs
// pass statistical tests even on counter inputs (Steele, Lea & Flood,
// "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014).
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// StreamSeed derives the seed of an independent random stream from a base
// seed and a sequence of stream coordinates (e.g. generation and slot, or a
// replica index). Each coordinate is folded through Mix64, so unlike an
// additive derivation there is no algebraic relation between nearby inputs:
// StreamSeed(s, i+d) and StreamSeed(s', i) collide only with the ~2^-64
// probability of a hash collision, for any s' and offset d.
func StreamSeed(seed uint64, coords ...uint64) uint64 {
	h := Mix64(seed + golden)
	for _, c := range coords {
		h = Mix64(h ^ (c + golden))
	}
	return h
}

// RNG is a SplitMix64 pseudo-random generator: one word of state, zero
// allocation, and a full-period 2^64 sequence. It is the per-offspring
// stream type of the GA — cheap enough to construct one per offspring from
// a StreamSeed — and implements Source alongside *math/rand.Rand. The zero
// value is a valid generator (the stream seeded with 0); an RNG must not be
// shared between goroutines.
type RNG struct {
	state uint64
}

// NewRNG returns a generator starting the stream identified by seed.
func NewRNG(seed uint64) RNG { return RNG{state: seed} }

// Uint64 returns the next 64 uniform pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	return Mix64(r.state)
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64s fills dst with the next len(dst) draws of Float64, in order:
// the same values, leaving the same state, as calling Float64 for each
// element. The state stays in a register for the whole fill.
func (r *RNG) Float64s(dst []float64) {
	s := r.state
	for i := range dst {
		s += golden
		dst[i] = float64(Mix64(s)>>11) / (1 << 53)
	}
	r.state = s
}

// Intn returns a uniform int in [0, n). It panics if n <= 0. Draws below
// 2^64 mod n are rejected, so the result is exactly uniform.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("stats: Intn bound %d <= 0", n))
	}
	un := uint64(n)
	if un&(un-1) == 0 { // power of two: mask, no bias
		return int(r.Uint64() & (un - 1))
	}
	min := -un % un // 2^64 mod n: the biased low region
	for {
		if v := r.Uint64(); v >= min {
			return int(v % un)
		}
	}
}

// Shuffle pseudo-randomizes the order of n elements via Fisher–Yates,
// mirroring math/rand's contract: swap exchanges elements i and j.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Source is the minimal uniform-variate source the variate helpers in this
// package accept. Both *math/rand.Rand and *RNG implement it.
type Source interface {
	Float64() float64
	Intn(n int) int
}
