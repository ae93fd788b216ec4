package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitmix64KnownVectors(t *testing.T) {
	// Canonical test vectors for splitmix64 with seed 0 (Vigna's reference
	// implementation / PractRand): the first three outputs are fixed
	// constants. If these change, every experiment seed in the repo changes
	// meaning.
	state := uint64(0)
	want := []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F}
	for i, w := range want {
		if g := splitmix64(&state); g != w {
			t.Fatalf("splitmix64 output %d = %#x, want %#x", i, g, w)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

// TestReseedMatchesNew: a reseeded value RNG, whatever stream it was on
// before, continues exactly like a fresh New over the same seed.
func TestReseedMatchesNew(t *testing.T) {
	var r RNG
	r.Reseed(11)
	_ = r.Uint64()
	r.Reseed(77)
	fresh := New(77)
	for i := 0; i < 100; i++ {
		if a, b := r.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("draw %d: reseeded %d, New %d", i, a, b)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Reseed(5) }); allocs != 0 {
		t.Fatalf("Reseed allocates %.0f times", allocs)
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with distinct seeds collided %d/1000 times", same)
	}
}

func TestMix64Deterministic(t *testing.T) {
	if Mix64(3, 5) != Mix64(3, 5) {
		t.Fatal("Mix64 not deterministic")
	}
	if Mix64(3, 5) == Mix64(5, 3) {
		t.Fatal("Mix64 should not be symmetric in its arguments")
	}
}

// TestMix64BreaksAdditiveAliasing: the derivation Mix64 replaced was
// Seed + run·0x9e3779b97f4a7c15, under which (S, r+1) and (S+stride, r)
// collide for every S and r. Mix64 must separate exactly those pairs.
func TestMix64BreaksAdditiveAliasing(t *testing.T) {
	const stride = 0x9e3779b97f4a7c15
	for seed := uint64(0); seed < 64; seed++ {
		for run := uint64(0); run < 16; run++ {
			if Mix64(seed, run+1) == Mix64(seed+stride, run) {
				t.Fatalf("Mix64(%d,%d) aliases Mix64(%d,%d)", seed, run+1, seed+stride, run)
			}
		}
	}
}

func TestMix64Spreads(t *testing.T) {
	// Consecutive (seed, run) pairs must land far apart: check all outputs
	// over a small grid are distinct.
	seen := make(map[uint64]bool)
	for a := uint64(0); a < 32; a++ {
		for b := uint64(0); b < 32; b++ {
			v := Mix64(a, b)
			if seen[v] {
				t.Fatalf("collision at Mix64(%d,%d)", a, b)
			}
			seen[v] = true
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("successive Split children produced identical first outputs")
	}
}

func TestSplitDeterministic(t *testing.T) {
	p1, p2 := New(7), New(7)
	c1, c2 := p1.Split(), p2.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("split children of equal parents diverged at %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n < 40; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square smoke test over 10 buckets.
	r := New(99)
	const buckets, samples = 10, 100000
	var counts [buckets]int
	for i := 0; i < samples; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(samples) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom; 99.9th percentile ≈ 27.88.
	if chi2 > 27.88 {
		t.Fatalf("chi-square %.2f exceeds 27.88; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(12)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %.4f too far from 1", variance)
	}
}

func TestPerm(t *testing.T) {
	r := New(5)
	for n := 0; n < 20; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(17)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(18)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) empirical rate %.4f", rate)
	}
}

func TestIntRange(t *testing.T) {
	r := New(19)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntRange(5,9) = %d", v)
		}
	}
	if v := r.IntRange(4, 4); v != 4 {
		t.Fatalf("IntRange(4,4) = %d", v)
	}
}

func TestFloatRange(t *testing.T) {
	r := New(20)
	for i := 0; i < 1000; i++ {
		v := r.FloatRange(1.5, 2.5)
		if v < 1.5 || v >= 2.5 {
			t.Fatalf("FloatRange(1.5,2.5) = %v", v)
		}
	}
}

// TestSampleDistinctProperties checks, via testing/quick, that SampleDistinct
// always returns k distinct in-range values that never include the excluded
// index — the invariant the balancer's candidate selection relies on.
func TestSampleDistinctProperties(t *testing.T) {
	r := New(21)
	prop := func(nRaw, kRaw, skipRaw uint8) bool {
		n := int(nRaw%50) + 2    // 2..51
		skip := int(skipRaw) % n // valid index
		k := int(kRaw) % n       // 0..n-1 <= available (n-1)
		dst := r.SampleDistinct(n, k, skip, nil)
		if len(dst) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range dst {
			if v < 0 || v >= n || v == skip || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinctFullPopulation(t *testing.T) {
	r := New(22)
	// k == n-1 with a skip must return every other element exactly once.
	n := 10
	dst := r.SampleDistinct(n, n-1, 3, nil)
	seen := map[int]bool{}
	for _, v := range dst {
		seen[v] = true
	}
	if len(seen) != n-1 || seen[3] {
		t.Fatalf("full-population sample wrong: %v", dst)
	}
}

func TestSampleDistinctNoSkip(t *testing.T) {
	r := New(23)
	dst := r.SampleDistinct(5, 5, -1, nil)
	seen := map[int]bool{}
	for _, v := range dst {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("sample without skip not a permutation: %v", dst)
	}
}

func TestSampleDistinctPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > population")
		}
	}()
	New(1).SampleDistinct(3, 3, 0, nil)
}

func TestSampleDistinctUniform(t *testing.T) {
	// Each element of [0,10)\{0} should be chosen with equal frequency when
	// sampling k=3 of 9 available.
	r := New(24)
	counts := make([]int, 10)
	const trials = 30000
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleDistinct(10, 3, 0, nil) {
			counts[v]++
		}
	}
	if counts[0] != 0 {
		t.Fatalf("excluded index was sampled %d times", counts[0])
	}
	expected := float64(trials*3) / 9
	for v := 1; v < 10; v++ {
		if math.Abs(float64(counts[v])-expected)/expected > 0.05 {
			t.Fatalf("index %d frequency %d deviates from %f", v, counts[v], expected)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(1000)
	}
	_ = sink
}

func BenchmarkSampleDistinct(b *testing.B) {
	r := New(1)
	buf := make([]int, 0, 8)
	for i := 0; i < b.N; i++ {
		buf = r.SampleDistinct(1024, 4, 17, buf)
	}
}
