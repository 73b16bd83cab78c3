package storage

import (
	"testing"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/vmsim"
)

func testColumn(t *testing.T, pages int, g dist.Generator) *Column {
	t.Helper()
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1 << 30)
	c, err := NewColumn(k, as, "scan", pages)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fill(g); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPageScanMerge exercises the shard reducer directly: merging in any
// order must equal a serial ScanFilter over the concatenation.
func TestPageScanMerge(t *testing.T) {
	g := dist.NewUniform(3, 0, 10_000)
	col := testColumn(t, 8, g)
	defer col.Close()
	const lo, hi = 2_000, 7_000

	var serial PageScan
	for p := 0; p < col.NumPages(); p++ {
		pg, err := col.PageBytes(p)
		if err != nil {
			t.Fatal(err)
		}
		serial.Merge(ScanFilter(pg, lo, hi))
	}

	// Two-shard split at every boundary, merged both ways.
	for cut := 0; cut <= col.NumPages(); cut++ {
		var a, b PageScan
		for p := 0; p < cut; p++ {
			pg, _ := col.PageBytes(p)
			a.Merge(ScanFilter(pg, lo, hi))
		}
		for p := cut; p < col.NumPages(); p++ {
			pg, _ := col.PageBytes(p)
			b.Merge(ScanFilter(pg, lo, hi))
		}
		ab := a
		ab.Merge(b)
		ba := b
		ba.Merge(a)
		for _, m := range []PageScan{ab, ba} {
			if m != serial {
				t.Fatalf("cut=%d: merged %+v != serial %+v", cut, m, serial)
			}
		}
	}
}

// TestPageScanMergeBoundaries pins the boundary-observation semantics of
// Merge: tightest value wins on each side, absent sides stay absent.
func TestPageScanMergeBoundaries(t *testing.T) {
	a := PageScan{Count: 1, Sum: 5, MaxBelow: 10, HasBelow: true}
	b := PageScan{Count: 2, Sum: 7, MaxBelow: 20, HasBelow: true, MinAbove: 100, HasAbove: true}
	a.Merge(b)
	if a.Count != 3 || a.Sum != 12 {
		t.Fatalf("aggregates: %+v", a)
	}
	if !a.HasBelow || a.MaxBelow != 20 {
		t.Fatalf("below: %+v", a)
	}
	if !a.HasAbove || a.MinAbove != 100 {
		t.Fatalf("above: %+v", a)
	}
	var zero PageScan
	zero.Merge(PageScan{})
	if zero != (PageScan{}) {
		t.Fatalf("zero merge: %+v", zero)
	}
}
