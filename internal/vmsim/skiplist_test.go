package vmsim

import (
	"sort"
	"testing"
	"testing/quick"
)

func mkVMA(start, end VPN) *VMA {
	return &VMA{start: start, end: end, perm: PermRWPrivate}
}

func listKeys(l *vmaList) []VPN {
	var out []VPN
	l.each(func(v *VMA) bool {
		out = append(out, v.start)
		return true
	})
	return out
}

func TestSkiplistInsertOrdered(t *testing.T) {
	l := newVMAList(1)
	for _, k := range []VPN{50, 10, 90, 30, 70, 20, 80, 40, 60, 100} {
		l.insert(mkVMA(k, k+1))
	}
	keys := listKeys(l)
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("iteration not sorted: %v", keys)
	}
	if l.len() != 10 {
		t.Fatalf("len = %d, want 10", l.len())
	}
}

func TestSkiplistRemove(t *testing.T) {
	l := newVMAList(2)
	for k := VPN(0); k < 100; k += 10 {
		l.insert(mkVMA(k, k+5))
	}
	if !l.remove(50) {
		t.Fatal("remove(50) failed")
	}
	if l.remove(50) {
		t.Fatal("double remove succeeded")
	}
	if l.remove(55) {
		t.Fatal("remove of absent key succeeded")
	}
	if l.len() != 9 {
		t.Fatalf("len = %d, want 9", l.len())
	}
	for _, k := range listKeys(l) {
		if k == 50 {
			t.Fatal("removed key still present")
		}
	}
}

func TestSkiplistFloor(t *testing.T) {
	l := newVMAList(3)
	for _, k := range []VPN{10, 20, 30} {
		l.insert(mkVMA(k, k+5))
	}
	cases := []struct {
		q    VPN
		want VPN
		ok   bool
	}{
		{5, 0, false}, {10, 10, true}, {15, 10, true},
		{20, 20, true}, {29, 20, true}, {30, 30, true}, {1000, 30, true},
	}
	for _, c := range cases {
		v := l.floor(c.q)
		if (v != nil) != c.ok {
			t.Errorf("floor(%d) presence = %v, want %v", c.q, v != nil, c.ok)
			continue
		}
		if v != nil && v.start != c.want {
			t.Errorf("floor(%d) = %d, want %d", c.q, v.start, c.want)
		}
	}
}

func TestSkiplistSeekGE(t *testing.T) {
	l := newVMAList(4)
	for _, k := range []VPN{10, 20, 30} {
		l.insert(mkVMA(k, k+5))
	}
	cases := []struct {
		q    VPN
		want VPN
		ok   bool
	}{
		{0, 10, true}, {10, 10, true}, {11, 20, true},
		{30, 30, true}, {31, 0, false},
	}
	for _, c := range cases {
		n := l.seekGE(c.q)
		if (n != nil) != c.ok {
			t.Errorf("seekGE(%d) presence = %v, want %v", c.q, n != nil, c.ok)
			continue
		}
		if n != nil && n.vma.start != c.want {
			t.Errorf("seekGE(%d) = %d, want %d", c.q, n.vma.start, c.want)
		}
	}
}

func TestSkiplistContaining(t *testing.T) {
	l := newVMAList(5)
	l.insert(mkVMA(10, 20))
	l.insert(mkVMA(30, 35))
	if v := l.containing(15); v == nil || v.start != 10 {
		t.Error("containing(15) wrong")
	}
	if v := l.containing(20); v != nil {
		t.Error("containing(20) matched past-the-end page")
	}
	if v := l.containing(5); v != nil {
		t.Error("containing(5) matched before first")
	}
	if v := l.containing(34); v == nil || v.start != 30 {
		t.Error("containing(34) wrong")
	}
}

func TestSkiplistFirstEmpty(t *testing.T) {
	l := newVMAList(6)
	if l.head.next[0] != nil {
		t.Fatal("first() on empty list non-nil")
	}
	if l.floor(100) != nil {
		t.Fatal("floor on empty list non-nil")
	}
	if l.seekGE(0) != nil {
		t.Fatal("seekGE on empty list non-nil")
	}
}

// Property: the skiplist behaves like a sorted map under arbitrary
// insert/remove sequences.
func TestQuickSkiplistVsMap(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		l := newVMAList(seed)
		ref := map[VPN]bool{}
		for _, op := range ops {
			k := VPN(op % 1024)
			if op&0x8000 != 0 && ref[k] {
				l.remove(k)
				delete(ref, k)
			} else if !ref[k] {
				l.insert(mkVMA(k, k+1))
				ref[k] = true
			}
		}
		if l.len() != len(ref) {
			return false
		}
		keys := listKeys(l)
		want := make([]VPN, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(keys) != len(want) {
			return false
		}
		for i := range keys {
			if keys[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSkiplistInsertRemove(b *testing.B) {
	l := newVMAList(7)
	rng := newTestRand(1)
	for i := 0; i < 10000; i++ {
		l.insert(mkVMA(VPN(rng.Intn(1<<30)), VPN(rng.Intn(1<<30))+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := VPN(rng.Intn(1 << 30))
		l.insert(mkVMA(k, k+1))
		l.remove(k)
	}
}
