package workload

import (
	"testing"
)

func TestSelectivitySweepShape(t *testing.T) {
	const n = 250
	qs := SelectivitySweep(1, n, 100_000_000, 50_000_000, 5_000)
	if len(qs) != n {
		t.Fatalf("len = %d", len(qs))
	}
	var minW, maxW uint64 = ^uint64(0), 0
	for _, q := range qs {
		if q.Hi > 100_000_000 || q.Lo > q.Hi {
			t.Fatalf("query out of domain: %+v", q)
		}
		w := q.Width()
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	if maxW != 50_000_000 {
		t.Fatalf("max width %d, want 50M", maxW)
	}
	if minW > 5_100 || minW < 4_900 {
		t.Fatalf("min width %d, want ~5000", minW)
	}
}

func TestSelectivitySweepShuffled(t *testing.T) {
	qs := SelectivitySweep(1, 250, 100_000_000, 50_000_000, 5_000)
	// If widths were still sorted descending the sweep was not shuffled.
	sortedDesc := true
	for i := 1; i < len(qs); i++ {
		if qs[i].Width() > qs[i-1].Width() {
			sortedDesc = false
			break
		}
	}
	if sortedDesc {
		t.Fatal("sweep not shuffled")
	}
}

func TestSelectivitySweepDeterministic(t *testing.T) {
	a := SelectivitySweep(7, 50, 1_000_000, 500_000, 100)
	b := SelectivitySweep(7, 50, 1_000_000, 500_000, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed sweeps differ")
		}
	}
}

func TestFixedSelectivity(t *testing.T) {
	qs := FixedSelectivity(3, 100, 100_000_000, 0.01)
	for _, q := range qs {
		if q.Width() != 1_000_000 {
			t.Fatalf("width %d, want 1M", q.Width())
		}
		if q.Hi > 100_000_000 {
			t.Fatalf("query exceeds domain: %+v", q)
		}
	}
}

func TestUniformUpdates(t *testing.T) {
	ups := UniformUpdates(5, 1000, 12345, 10, 20)
	if len(ups) != 1000 {
		t.Fatalf("len = %d", len(ups))
	}
	for _, u := range ups {
		if u.Row < 0 || u.Row >= 12345 {
			t.Fatalf("row %d out of range", u.Row)
		}
		if u.Value < 10 || u.Value > 20 {
			t.Fatalf("value %d out of range", u.Value)
		}
	}
}

func TestRandomSubranges(t *testing.T) {
	rs := RandomSubranges(9, 5, 1<<40, 1.0/1024)
	if len(rs) != 5 {
		t.Fatalf("len = %d", len(rs))
	}
	want := uint64(float64(uint64(1)<<40) / 1024)
	for _, r := range rs {
		if r.Width() != want {
			t.Fatalf("width %d, want %d", r.Width(), want)
		}
	}
}

func TestPanicsOnBadParameters(t *testing.T) {
	cases := []func(){
		func() { SelectivitySweep(1, 0, 100, 50, 5) },
		func() { SelectivitySweep(1, 10, 100, 5, 50) },
		func() { SelectivitySweep(1, 10, 100, 500, 5) },
		func() { FixedSelectivity(1, 10, 100, 0) },
		func() { FixedSelectivity(1, 10, 100, 1.5) },
		func() { UniformUpdates(1, 5, 0, 0, 10) },
		func() { UniformUpdates(1, 5, 10, 20, 10) },
		func() { RandomSubranges(1, 0, 100, 0.5) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestConcurrentClientsDeterministic(t *testing.T) {
	const (
		clients = 4
		n       = 25
		domain  = uint64(100_000_000)
		sel     = 0.01
	)
	a := ConcurrentClients(42, clients, n, domain, sel)
	b := ConcurrentClients(42, clients, n, domain, sel)
	if len(a) != clients {
		t.Fatalf("clients = %d", len(a))
	}
	for c := range a {
		if len(a[c]) != n {
			t.Fatalf("client %d: %d queries", c, len(a[c]))
		}
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				t.Fatalf("client %d query %d: %+v != %+v — streams not deterministic",
					c, i, a[c][i], b[c][i])
			}
			if a[c][i].Hi > domain || a[c][i].Lo > a[c][i].Hi {
				t.Fatalf("client %d query %d out of domain: %+v", c, i, a[c][i])
			}
		}
	}
	// Distinct clients must fire distinct streams (decorrelated seeds).
	same := 0
	for i := range a[0] {
		if a[0][i] == a[1][i] {
			same++
		}
	}
	if same == n {
		t.Fatal("client 0 and client 1 streams are identical")
	}
	// A stream is a prefix-stable function of its parameters: asking for
	// fewer queries yields the same leading queries.
	short := ConcurrentClients(42, clients, n/2, domain, sel)
	for c := range short {
		for i := range short[c] {
			if short[c][i] != a[c][i] {
				t.Fatalf("client %d: stream not prefix-stable at %d", c, i)
			}
		}
	}
}

func TestConcurrentClientsPanicsOnBadParameters(t *testing.T) {
	for i, f := range []func(){
		func() { ConcurrentClients(1, 0, 10, 100, 0.5) },
		func() { ConcurrentClients(1, -1, 10, 100, 0.5) },
		func() { ConcurrentClients(1, 2, 10, 100, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestConcurrentUpdatersDeterministic(t *testing.T) {
	const (
		writers = 4
		n       = 30
		rows    = 10_000
		valHi   = uint64(1_000_000)
	)
	a := ConcurrentUpdaters(7, writers, n, rows, 0, valHi)
	b := ConcurrentUpdaters(7, writers, n, rows, 0, valHi)
	if len(a) != writers {
		t.Fatalf("writers = %d", len(a))
	}
	for w := range a {
		if len(a[w]) != n {
			t.Fatalf("writer %d: %d updates", w, len(a[w]))
		}
		for i := range a[w] {
			if a[w][i] != b[w][i] {
				t.Fatalf("writer %d update %d: %+v != %+v — streams not deterministic",
					w, i, a[w][i], b[w][i])
			}
			if a[w][i].Row < 0 || a[w][i].Row >= rows || a[w][i].Value > valHi {
				t.Fatalf("writer %d update %d out of bounds: %+v", w, i, a[w][i])
			}
		}
	}
	// Distinct writers must fire distinct streams (decorrelated seeds).
	same := 0
	for i := range a[0] {
		if a[0][i] == a[1][i] {
			same++
		}
	}
	if same == n {
		t.Fatal("writer 0 and writer 1 streams are identical")
	}
	// Writer i's stream must not depend on how many writers exist.
	two := ConcurrentUpdaters(7, 2, n, rows, 0, valHi)
	for i := range two[1] {
		if two[1][i] != a[1][i] {
			t.Fatalf("writer 1 stream changed with writer count at %d", i)
		}
	}
}

func TestConcurrentUpdatersPanicsOnBadParameters(t *testing.T) {
	for i, f := range []func(){
		func() { ConcurrentUpdaters(1, 0, 10, 100, 0, 50) },
		func() { ConcurrentUpdaters(1, -2, 10, 100, 0, 50) },
		func() { ConcurrentUpdaters(1, 2, 10, 0, 0, 50) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
