package storage

import (
	"testing"
	"testing/quick"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/vmsim"
)

func newTestColumn(t *testing.T, pages int) *Column {
	t.Helper()
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	c, err := NewColumn(k, as, "col", pages)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPageCodec(t *testing.T) {
	page := make([]byte, PageSize)
	SetPageID(page, 0xDEADBEEF)
	if PageID(page) != 0xDEADBEEF {
		t.Fatal("pageID round-trip failed")
	}
	SetValueAt(page, 0, 1)
	SetValueAt(page, ValuesPerPage-1, ^uint64(0))
	if ValueAt(page, 0) != 1 || ValueAt(page, ValuesPerPage-1) != ^uint64(0) {
		t.Fatal("value round-trip failed")
	}
	// Header must be untouched by value writes.
	if PageID(page) != 0xDEADBEEF {
		t.Fatal("value write clobbered header")
	}
}

func TestValuesPerPageConstant(t *testing.T) {
	if ValuesPerPage != 509 {
		t.Fatalf("ValuesPerPage = %d, want 509 (4 KiB page, 24 B header, 8 B values)", ValuesPerPage)
	}
}

func TestZoneCodec(t *testing.T) {
	page := make([]byte, PageSize)
	SetPageID(page, 42)
	SetZone(page, 100, 900)
	min, max := Zone(page)
	if min != 100 || max != 900 {
		t.Fatalf("Zone = (%d,%d)", min, max)
	}
	if PageID(page) != 42 {
		t.Fatal("SetZone clobbered pageID")
	}
	SetValueAt(page, 0, 1)
	if min, max := Zone(page); min != 100 || max != 900 {
		t.Fatalf("value write clobbered zone: (%d,%d)", min, max)
	}
}

func TestFillStampsExactZones(t *testing.T) {
	c := newTestColumn(t, 16)
	if err := c.Fill(dist.NewUniform(3, 10, 1000)); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 16; p++ {
		pg, _ := c.PageBytes(p)
		zMin, zMax := Zone(pg)
		min, max := PageMinMax(pg)
		if zMin != min || zMax != max {
			t.Fatalf("page %d zone (%d,%d) != actual (%d,%d)", p, zMin, zMax, min, max)
		}
	}
}

// TestSetValueKeepsZoneExact: a write outside the zone enlarges it, and
// overwriting the page's minimum or maximum shrinks it back to the page's
// values.
func TestSetValueKeepsZoneExact(t *testing.T) {
	c := newTestColumn(t, 2)
	if err := c.Fill(dist.NewUniform(3, 500, 600)); err != nil {
		t.Fatal(err)
	}
	pg, _ := c.PageBytes(0)
	exact := func(when string) {
		t.Helper()
		zMin, zMax := Zone(pg)
		if min, max := PageMinMax(pg); zMin != min || zMax != max {
			t.Fatalf("%s: zone (%d,%d), values (%d,%d)", when, zMin, zMax, min, max)
		}
	}
	if _, err := c.SetValue(3, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetValue(4, 9999); err != nil {
		t.Fatal(err)
	}
	if zMin, zMax := Zone(pg); zMin != 10 || zMax != 9999 {
		t.Fatalf("zone after updates (%d,%d), want (10,9999)", zMin, zMax)
	}
	exact("after enlarging")
	if _, err := c.SetValue(3, 550); err != nil {
		t.Fatal(err)
	}
	if zMin, _ := Zone(pg); zMin < 500 {
		t.Fatalf("zone minimum %d after overwriting the minimum 10", zMin)
	}
	exact("after overwriting the minimum")
	if _, err := c.SetValue(4, 550); err != nil {
		t.Fatal(err)
	}
	if _, zMax := Zone(pg); zMax > 600 {
		t.Fatalf("zone maximum %d after overwriting the maximum 9999", zMax)
	}
	exact("after overwriting the maximum")
	// Every slot overwritten in turn: the zone follows each one.
	for i := 0; i < ValuesPerPage; i++ {
		if _, err := c.SetValue(i, uint64(1000+i%7)); err != nil {
			t.Fatal(err)
		}
		exact("during the sweep")
	}
}

func TestNewColumnStampsPageIDs(t *testing.T) {
	c := newTestColumn(t, 16)
	for p := 0; p < 16; p++ {
		pg, err := c.PageBytes(p)
		if err != nil {
			t.Fatal(err)
		}
		if PageID(pg) != uint64(p) {
			t.Fatalf("page %d has pageID %d", p, PageID(pg))
		}
	}
	if c.NumPages() != 16 || c.Rows() != 16*ValuesPerPage {
		t.Fatalf("NumPages=%d Rows=%d", c.NumPages(), c.Rows())
	}
}

func TestNewColumnRejectsBadSize(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	if _, err := NewColumn(k, as, "c", 0); err == nil {
		t.Fatal("zero-page column accepted")
	}
	if _, err := NewColumn(k, as, "c", -3); err == nil {
		t.Fatal("negative-page column accepted")
	}
}

func TestValueSetValue(t *testing.T) {
	c := newTestColumn(t, 4)
	row := 2*ValuesPerPage + 17
	old, err := c.SetValue(row, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if old != 0 {
		t.Fatalf("old = %d, want 0 (fresh column)", old)
	}
	v, err := c.Value(row)
	if err != nil || v != 12345 {
		t.Fatalf("Value = %d, %v", v, err)
	}
	old, err = c.SetValue(row, 678)
	if err != nil || old != 12345 {
		t.Fatalf("second SetValue old = %d, %v", old, err)
	}
	if _, err := c.Value(-1); err == nil {
		t.Fatal("negative row accepted")
	}
	if _, err := c.Value(c.Rows()); err == nil {
		t.Fatal("row past end accepted")
	}
}

func TestRowLocation(t *testing.T) {
	c := newTestColumn(t, 4)
	p, s, err := c.RowLocation(ValuesPerPage + 5)
	if err != nil || p != 1 || s != 5 {
		t.Fatalf("RowLocation = (%d,%d,%v)", p, s, err)
	}
}

func TestScanFilter(t *testing.T) {
	page := make([]byte, PageSize)
	SetPageID(page, 1)
	// Slots: 0..510 get value 2*i.
	for i := 0; i < ValuesPerPage; i++ {
		SetValueAt(page, i, uint64(2*i))
	}
	s := ScanFilter(page, 100, 200)
	// Qualifying: even numbers 100..200 inclusive -> 51 values.
	if s.Count != 51 {
		t.Fatalf("Count = %d, want 51", s.Count)
	}
	wantSum := uint64(0)
	for v := 100; v <= 200; v += 2 {
		wantSum += uint64(v)
	}
	if s.Sum != wantSum {
		t.Fatalf("Sum = %d, want %d", s.Sum, wantSum)
	}
	if !s.HasBelow || s.MaxBelow != 98 {
		t.Fatalf("MaxBelow = %d,%v, want 98,true", s.MaxBelow, s.HasBelow)
	}
	if !s.HasAbove || s.MinAbove != 202 {
		t.Fatalf("MinAbove = %d,%v, want 202,true", s.MinAbove, s.HasAbove)
	}
}

func TestScanFilterAllQualify(t *testing.T) {
	page := make([]byte, PageSize)
	for i := 0; i < ValuesPerPage; i++ {
		SetValueAt(page, i, 50)
	}
	s := ScanFilter(page, 0, 100)
	if s.Count != ValuesPerPage || s.HasBelow || s.HasAbove {
		t.Fatalf("got %+v", s)
	}
}

func TestScanFilterNoneQualify(t *testing.T) {
	page := make([]byte, PageSize)
	for i := 0; i < ValuesPerPage; i++ {
		SetValueAt(page, i, uint64(1000+i))
	}
	s := ScanFilter(page, 0, 10)
	if s.Count != 0 || s.HasBelow || !s.HasAbove || s.MinAbove != 1000 {
		t.Fatalf("got %+v", s)
	}
}

func TestPageMinMax(t *testing.T) {
	page := make([]byte, PageSize)
	for i := 0; i < ValuesPerPage; i++ {
		SetValueAt(page, i, uint64(100+i))
	}
	SetValueAt(page, 7, 3)
	SetValueAt(page, 8, 999999)
	min, max := PageMinMax(page)
	if min != 3 || max != 999999 {
		t.Fatalf("PageMinMax = (%d,%d)", min, max)
	}
}

func TestCollectMatches(t *testing.T) {
	page := make([]byte, PageSize)
	for i := 0; i < ValuesPerPage; i++ {
		SetValueAt(page, i, uint64(i))
	}
	var slots []int
	CollectMatches(page, 10, 12, func(slot int, v uint64) {
		slots = append(slots, slot)
		if v != uint64(slot) {
			t.Fatalf("slot %d carries %d", slot, v)
		}
	})
	if len(slots) != 3 || slots[0] != 10 || slots[2] != 12 {
		t.Fatalf("slots = %v", slots)
	}
}

func TestFillAndFullScan(t *testing.T) {
	c := newTestColumn(t, 64)
	g := dist.NewUniform(7, 0, 1000)
	if err := c.Fill(g); err != nil {
		t.Fatal(err)
	}
	// Reference: regenerate and filter in plain Go.
	lo, hi := uint64(100), uint64(300)
	buf := make([]uint64, ValuesPerPage)
	wantCount, wantSum := 0, uint64(0)
	for p := 0; p < 64; p++ {
		g.FillPage(p, buf)
		for _, v := range buf {
			if v >= lo && v <= hi {
				wantCount++
				wantSum += v
			}
		}
	}
	count, sum, err := c.FullScan(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if count != wantCount || sum != wantSum {
		t.Fatalf("FullScan = (%d,%d), want (%d,%d)", count, sum, wantCount, wantSum)
	}
}

func TestFillPreservesPageIDs(t *testing.T) {
	c := newTestColumn(t, 8)
	if err := c.Fill(dist.NewUniform(1, 0, 100)); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		pg, _ := c.PageBytes(p)
		if PageID(pg) != uint64(p) {
			t.Fatalf("page %d lost its header after Fill", p)
		}
	}
}

func TestWritesVisibleThroughFile(t *testing.T) {
	c := newTestColumn(t, 2)
	if _, err := c.SetValue(0, 77); err != nil {
		t.Fatal(err)
	}
	// Read the same slot via the file handle (bypassing the view).
	raw, err := c.File().PageData(0)
	if err != nil {
		t.Fatal(err)
	}
	if ValueAt(raw, 0) != 77 {
		t.Fatal("write through full view not visible through file")
	}
}

func TestClose(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	c, err := NewColumn(k, as, "col", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if k.FramesInUse() != 0 {
		t.Fatalf("FramesInUse = %d after Close", k.FramesInUse())
	}
	if as.VMACount() != 0 {
		t.Fatalf("VMACount = %d after Close", as.VMACount())
	}
}

// Property: ScanFilter boundary values are consistent with a naive scan.
func TestQuickScanFilterMatchesNaive(t *testing.T) {
	f := func(vals []uint64, loRaw, hiRaw uint64) bool {
		lo, hi := loRaw, hiRaw
		if lo > hi {
			lo, hi = hi, lo
		}
		page := make([]byte, PageSize)
		for i := 0; i < ValuesPerPage; i++ {
			var v uint64
			if len(vals) > 0 {
				v = vals[i%len(vals)]
			}
			SetValueAt(page, i, v)
		}
		got := ScanFilter(page, lo, hi)

		var want PageScan
		for i := 0; i < ValuesPerPage; i++ {
			v := ValueAt(page, i)
			switch {
			case v < lo:
				if !want.HasBelow || v > want.MaxBelow {
					want.MaxBelow, want.HasBelow = v, true
				}
			case v > hi:
				if !want.HasAbove || v < want.MinAbove {
					want.MinAbove, want.HasAbove = v, true
				}
			default:
				want.Count++
				want.Sum += v
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScanFilterPage(b *testing.B) {
	page := make([]byte, PageSize)
	for i := 0; i < ValuesPerPage; i++ {
		SetValueAt(page, i, uint64(i*7919%100000))
	}
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ScanFilter(page, 1000, 50000)
	}
}

func BenchmarkFullScan(b *testing.B) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	c, err := NewColumn(k, as, "col", 1024)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Fill(dist.NewUniform(1, 0, 100_000_000)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(1024 * PageSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.FullScan(0, 50_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
