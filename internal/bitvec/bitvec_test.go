package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	v := New(0)
	if v.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", v.Len())
	}
	if v.Count() != 0 {
		t.Fatalf("Count() = %d, want 0", v.Count())
	}
	if got := v.NextSet(0); got != -1 {
		t.Fatalf("NextSet(0) = %d, want -1", got)
	}
}

func TestSetGetClear(t *testing.T) {
	v := New(130) // spans three words
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if v.Count() != len(idx) {
		t.Fatalf("Count() = %d, want %d", v.Count(), len(idx))
	}
	for _, i := range idx {
		v.Clear(i)
		if v.Get(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
	if v.Count() != 0 {
		t.Fatalf("Count() = %d after clearing all, want 0", v.Count())
	}
}

func TestTestAndSet(t *testing.T) {
	v := New(10)
	if v.TestAndSet(3) {
		t.Fatal("TestAndSet on clear bit returned true")
	}
	if !v.TestAndSet(3) {
		t.Fatal("TestAndSet on set bit returned false")
	}
	if !v.Get(3) {
		t.Fatal("bit 3 not set after TestAndSet")
	}
}

func TestNextSet(t *testing.T) {
	v := New(200)
	for _, i := range []int{5, 64, 130, 199} {
		v.Set(i)
	}
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 130},
		{131, 199}, {199, 199}, {-3, 5},
	}
	for _, c := range cases {
		if got := v.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := v.NextSet(200); got != -1 {
		t.Errorf("NextSet(200) = %d, want -1", got)
	}
	v2 := New(100)
	if got := v2.NextSet(0); got != -1 {
		t.Errorf("NextSet on empty = %d, want -1", got)
	}
}

func TestOrAnd(t *testing.T) {
	vec := func(bits ...int) *Vector {
		v := New(100)
		for _, i := range bits {
			v.Set(i)
		}
		return v
	}
	b := vec(50, 99)

	or := vec(1, 50)
	or.Or(b)
	for _, i := range []int{1, 50, 99} {
		if !or.Get(i) {
			t.Errorf("or: bit %d not set", i)
		}
	}
	if or.Count() != 3 {
		t.Errorf("or.Count() = %d, want 3", or.Count())
	}

	and := vec(1, 50)
	and.And(b)
	if !and.Get(50) || and.Count() != 1 {
		t.Errorf("and: got count %d, want only bit 50", and.Count())
	}
}

func TestReset(t *testing.T) {
	v := New(500)
	for i := 0; i < 500; i += 7 {
		v.Set(i)
	}
	v.Reset()
	if v.Count() != 0 {
		t.Fatalf("Count() = %d after Reset, want 0", v.Count())
	}
	if v.Len() != 500 {
		t.Fatalf("Len() = %d after Reset, want 500", v.Len())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(8)
	for _, f := range []func(){
		func() { v.Set(8) },
		func() { v.Get(-1) },
		func() { v.Clear(100) },
		func() { v.TestAndSet(8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range access")
				}
			}()
			f()
		}()
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Or on mismatched lengths")
		}
	}()
	a.Or(b)
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative size")
		}
	}()
	New(-1)
}

// Property: Count equals the number of distinct indices set.
func TestQuickCountMatchesSet(t *testing.T) {
	f := func(raw []uint16) bool {
		v := New(1 << 16)
		seen := map[int]bool{}
		for _, r := range raw {
			i := int(r)
			v.Set(i)
			seen[i] = true
		}
		return v.Count() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: iterating NextSet visits exactly the set indices, in order.
func TestQuickNextSetIteration(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		const n = 1 << 16
		v := New(n)
		want := map[int]bool{}
		for _, r := range raw {
			v.Set(int(r))
			want[int(r)] = true
		}
		got := []int{}
		for i := v.NextSet(0); i != -1; i = v.NextSet(i + 1) {
			got = append(got, i)
		}
		if len(got) != len(want) {
			return false
		}
		prev := -1
		for _, i := range got {
			if !want[i] || i <= prev {
				return false
			}
			prev = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: TestAndSet returns false exactly once per index.
func TestQuickTestAndSetOnce(t *testing.T) {
	f := func(raw []uint8) bool {
		v := New(256)
		first := map[int]bool{}
		for _, r := range raw {
			i := int(r)
			prev := v.TestAndSet(i)
			if !prev && first[i] {
				return false // claimed "first" twice
			}
			if prev && !first[i] {
				return false // claimed "seen" before first set
			}
			first[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: OrAt at any offset equals setting the same bits one by one,
// including masks whose zero tail hangs over the end of the vector.
func TestQuickOrAtMatchesSet(t *testing.T) {
	f := func(words []uint64, offRaw uint16, pre []uint16) bool {
		if len(words) > 8 {
			words = words[:8]
		}
		off := int(offRaw % 700)
		const n = 700 + 509 // like a page mask: 8 words carry 509 usable bits
		for k := range words {
			for j := 0; j < 64; j++ {
				if off+k*64+j >= n {
					words[k] &^= 1 << j
				}
			}
		}
		got, want := New(n), New(n)
		for _, i := range pre {
			got.Set(int(i) % n)
			want.Set(int(i) % n)
		}
		got.OrAt(off, words)
		for k, x := range words {
			for j := 0; j < 64; j++ {
				if x&(1<<j) != 0 {
					want.Set(off + k*64 + j)
				}
			}
		}
		for i := 0; i < n; i++ {
			if got.Get(i) != want.Get(i) {
				return false
			}
		}
		return got.Count() == want.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOrAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OrAt past the end did not panic")
		}
	}()
	New(100).OrAt(64, []uint64{1 << 36})
}

func BenchmarkSet(b *testing.B) {
	v := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Set(i & (1<<20 - 1))
	}
}

func BenchmarkNextSetSparse(b *testing.B) {
	v := New(1 << 20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v.Set(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := v.NextSet(0); j != -1; j = v.NextSet(j + 1) {
		}
	}
}
