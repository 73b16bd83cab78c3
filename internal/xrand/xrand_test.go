package xrand

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestSplitmix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the splitmix64 reference
	// implementation by Sebastiano Vigna.
	state := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
	}
	for i, w := range want {
		if got := Splitmix64(&state); got != w {
			t.Fatalf("Splitmix64 step %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(7)
	for _, n := range []uint64{1, 2, 3, 7, 64, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nOne(t *testing.T) {
	r := New(3)
	for i := 0; i < 50; i++ {
		if v := r.Uint64n(1); v != 0 {
			t.Fatalf("Uint64n(1) = %d, want 0", v)
		}
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnNonPositivePanics(t *testing.T) {
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for Intn(%d)", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestUint64RangeBounds(t *testing.T) {
	r := New(9)
	lo, hi := uint64(100), uint64(200)
	for i := 0; i < 1000; i++ {
		v := r.Uint64Range(lo, hi)
		if v < lo || v > hi {
			t.Fatalf("Uint64Range(%d,%d) = %d out of range", lo, hi, v)
		}
	}
	// Degenerate single-point range.
	if v := r.Uint64Range(55, 55); v != 55 {
		t.Fatalf("Uint64Range(55,55) = %d", v)
	}
	// Full-width range must not panic.
	_ = r.Uint64Range(0, ^uint64(0))
}

func TestUint64RangeInvertedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(1).Uint64Range(10, 9)
}

func TestFloat64Bounds(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestUniformity(t *testing.T) {
	// Chi-squared-ish sanity check: 16 buckets over 160k draws should all be
	// within 5% of the expected count for a healthy generator.
	r := New(123)
	const buckets, draws = 16, 160000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := draws / buckets
	for i, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Errorf("bucket %d: %d draws, want %d +-5%%", i, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(77)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleDeterministic(t *testing.T) {
	mk := func() []int {
		s := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		New(5).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed shuffles differ")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	r := New(1)
	f := r.Fork()
	// The fork must not replay the parent's stream.
	same := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == f.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("fork mirrors parent: %d/100 identical", same)
	}
}

// uint64nReference is Uint64n as it was before the division-free
// rewrite: the rejection threshold 2^64 mod n computed up front, then
// multiply-and-reject. Uint64n must accept, reject and return exactly the
// same draws, so that every generator and workload stream is unchanged.
func uint64nReference(r *Rand, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	thresh := -n % n
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= thresh {
			return hi
		}
	}
}

func TestUint64nMatchesReference(t *testing.T) {
	ns := []uint64{1, 2, 3, 5, 509, 100_000_001, 1 << 63, 1<<63 + 1, math.MaxUint64}
	for k := 1; k < 64; k++ {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	const draws = 20_000
	for _, n := range ns {
		got, want := New(n), New(n)
		for i := 0; i < draws; i++ {
			g, w := got.Uint64n(n), uint64nReference(want, n)
			if g != w {
				t.Fatalf("n=%#x draw %d: Uint64n = %d, reference = %d", n, i, g, w)
			}
		}
		// Equal outputs could hide a different number of rejected draws;
		// the streams must also stay in step.
		if got.Uint64() != want.Uint64() {
			t.Fatalf("n=%#x: streams diverged after %d draws", n, draws)
		}
	}
	// Random bounds, one shared stream per side, as the generators use it.
	pick := New(7)
	got, want := New(8), New(8)
	for i := 0; i < 200_000; i++ {
		n := pick.Uint64() >> (pick.Uint64() & 63)
		if n == 0 {
			n = 1
		}
		if g, w := got.Uint64n(n), uint64nReference(want, n); g != w {
			t.Fatalf("draw %d, n=%#x: Uint64n = %d, reference = %d", i, n, g, w)
		}
	}
}

// Property: Uint64n(n) < n for arbitrary n > 0.
func TestQuickUint64nInRange(t *testing.T) {
	r := New(99)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64n(1000003)
	}
}
