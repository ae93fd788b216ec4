// Package rng provides a small, fast, deterministic pseudo-random number
// generator for the simulator and the experiment harnesses.
//
// Every experiment in this repository must be exactly reproducible from a
// single 64-bit seed, across platforms and Go releases. The standard
// library's math/rand source does not guarantee a stable stream across
// releases (and math/rand/v2 seeds globally), so the simulator carries its
// own generator: xoshiro256** seeded via splitmix64, the combination
// recommended by the xoshiro authors. The generator additionally supports
// deterministic stream splitting so that concurrent simulation runs draw
// from independent, reproducible streams.
//
// None of the code in this package is safe for concurrent use of a single
// *RNG; callers split one stream per goroutine instead.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct with New or Reseed.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the 64-bit splitmix state and returns the next value.
// It is used to expand a single seed word into the xoshiro state and to
// derive child stream seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically derived from seed.
// Distinct seeds yield (with overwhelming probability) uncorrelated streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets r to the state New(seed) starts from, so a value-typed
// RNG (an element of a slice, a struct field) can be pointed at a fresh
// stream without allocating.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro requires a nonzero state; splitmix64 output is zero for all
	// four words only with negligible probability, but guard anyway so the
	// generator cannot lock up.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Mix64 hashes two 64-bit words into one seed word. Use it wherever a
// stream must be derived from a (base seed, index) pair: the naive
// `seed + index*const` derivation makes the pair (S, i+1) collide with
// (S+const, i) — run i+1 of one experiment replays run i of another
// whose seed differs by the constant. Mixing each word through a full
// splitmix64 round breaks that additive structure.
func Mix64(a, b uint64) uint64 {
	x := a
	h := splitmix64(&x)
	x = h ^ b
	return splitmix64(&x)
}

// Split derives a new, statistically independent generator from r.
// The child stream is a deterministic function of r's current state, and
// deriving it advances r, so successive Split calls yield distinct streams.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the xoshiro256** stream.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Int63 returns a non-negative int64.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation with rejection to
	// remove modulo bias.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normally distributed float64 using the
// polar (Marsaglia) method. Used only by synthetic workload generators.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// ShuffleInts permutes s in place.
func (r *RNG) ShuffleInts(s []int) {
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// Shuffle pseudo-randomizes the order of n elements using the swap callback,
// matching the contract of math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// IntRange returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// FloatRange returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (r *RNG) FloatRange(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: FloatRange with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// SampleDistinct fills dst with k distinct integers drawn uniformly from
// [0, n) excluding the value skip (pass skip < 0 to exclude nothing), and
// returns dst[:k]. It panics if k exceeds the number of available values.
//
// This is the candidate-selection primitive of the load balancer: a
// processor chooses δ distinct partners from {0..n-1} − {itself}.
// The implementation is Floyd's algorithm, O(k) expected time and O(k)
// space, so selection stays cheap even for large n.
func (r *RNG) SampleDistinct(n, k, skip int, dst []int) []int {
	avail := n
	if skip >= 0 && skip < n {
		avail--
	}
	if k > avail {
		panic("rng: SampleDistinct k exceeds population")
	}
	dst = dst[:0]
	// Floyd's algorithm over the population [0, avail) with a translation
	// that skips the excluded value.
	translate := func(v int) int {
		if skip >= 0 && v >= skip {
			return v + 1
		}
		return v
	}
	// Duplicate detection: for the small k of the balancer's δ-selection a
	// linear scan over the picks so far beats a map and allocates nothing —
	// SampleDistinct sits on the hot path of every balancing operation. The
	// map path serves large k. Both consume the identical Intn sequence and
	// produce identical picks, so the choice is invisible to the stream.
	if k <= 16 {
		var picks [16]int
		for j := avail - k; j < avail; j++ {
			t := r.Intn(j + 1)
			np := len(dst)
			for i := 0; i < np; i++ {
				if picks[i] == t {
					t = j
					break
				}
			}
			picks[np] = t
			dst = append(dst, translate(t))
		}
		return dst
	}
	seen := make(map[int]struct{}, k)
	for j := avail - k; j < avail; j++ {
		t := r.Intn(j + 1)
		if _, dup := seen[t]; dup {
			t = j
		}
		seen[t] = struct{}{}
		dst = append(dst, translate(t))
	}
	return dst
}
