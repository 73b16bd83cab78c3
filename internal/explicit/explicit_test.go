package explicit

import (
	"testing"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/vmsim"
	"github.com/asv-db/asv/internal/xrand"
)

const (
	testPages = 128
	valueMax  = 1_000_000
)

func testColumn(t testing.TB) *storage.Column {
	t.Helper()
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1 << 30)
	c, err := storage.NewColumn(k, as, "col", testPages)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fill(dist.NewUniform(7, 0, valueMax)); err != nil {
		t.Fatal(err)
	}
	return c
}

// allVariants builds every Index variant over the same column and range.
func allVariants(t testing.TB, col *storage.Column, lo, hi uint64) []Index {
	t.Helper()
	zm := NewZoneMap(col, lo, hi)
	bm, err := NewBitmap(col, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := NewPageVector(col, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPhysicalScan(col, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	vv, err := NewVirtualView(col, lo, hi, view.CreateOptions{Consecutive: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return []Index{zm, bm, pv, ps, vv}
}

func TestAllVariantsAgreeWithFullScan(t *testing.T) {
	col := testColumn(t)
	lo, hi := uint64(0), uint64(200_000)
	variants := allVariants(t, col, lo, hi)
	queries := [][2]uint64{{0, 100_000}, {50_000, 150_000}, {0, 200_000}, {199_999, 200_000}}
	for _, q := range queries {
		wantCount, wantSum, err := col.FullScan(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range variants {
			count, sum, err := idx.Lookup(q[0], q[1])
			if err != nil {
				t.Fatalf("%s: %v", idx.Name(), err)
			}
			if count != wantCount || sum != wantSum {
				t.Fatalf("%s query [%d,%d]: (%d,%d), want (%d,%d)",
					idx.Name(), q[0], q[1], count, sum, wantCount, wantSum)
			}
		}
	}
}

func TestAllVariantsAgreeAfterUpdates(t *testing.T) {
	col := testColumn(t)
	lo, hi := uint64(0), uint64(200_000)
	variants := allVariants(t, col, lo, hi)

	// The Figure 3 update stream: uniformly selected rows overwritten with
	// uniform values (some enter the index range, some leave it).
	rng := xrand.New(42)
	for i := 0; i < 2_000; i++ {
		row := rng.Intn(col.Rows())
		newVal := rng.Uint64n(valueMax)
		old, err := col.SetValue(row, newVal)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range variants {
			if err := idx.ApplyUpdate(row, old, newVal); err != nil {
				t.Fatalf("%s: ApplyUpdate: %v", idx.Name(), err)
			}
		}
	}

	for _, q := range [][2]uint64{{0, 100_000}, {10_000, 180_000}, {0, 200_000}} {
		wantCount, wantSum, err := col.FullScan(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range variants {
			count, sum, err := idx.Lookup(q[0], q[1])
			if err != nil {
				t.Fatalf("%s: %v", idx.Name(), err)
			}
			if count != wantCount || sum != wantSum {
				t.Fatalf("%s after updates, query [%d,%d]: (%d,%d), want (%d,%d)",
					idx.Name(), q[0], q[1], count, sum, wantCount, wantSum)
			}
		}
	}
}

func TestPageCountsConsistent(t *testing.T) {
	col := testColumn(t)
	lo, hi := uint64(0), uint64(150_000)
	variants := allVariants(t, col, lo, hi)

	// Ground truth: pages holding at least one value in [lo, hi].
	want := 0
	for p := 0; p < col.NumPages(); p++ {
		pg, _ := col.PageBytes(p)
		if s := storage.ScanFilter(pg, lo, hi); s.Count > 0 {
			want++
		}
	}
	for _, idx := range variants {
		if idx.Name() == "zonemap" {
			// Zones may overapproximate; must be at least the truth.
			if got := idx.Pages(); got < want {
				t.Errorf("zonemap.Pages() = %d < ground truth %d", got, want)
			}
			continue
		}
		if got := idx.Pages(); got != want {
			t.Errorf("%s.Pages() = %d, want %d", idx.Name(), got, want)
		}
	}
}

func TestLookupRangeValidation(t *testing.T) {
	col := testColumn(t)
	variants := allVariants(t, col, 100, 1000)
	for _, idx := range variants {
		if _, _, err := idx.Lookup(0, 500); err == nil {
			t.Errorf("%s accepted query below index range", idx.Name())
		}
		if _, _, err := idx.Lookup(500, 2000); err == nil {
			t.Errorf("%s accepted query above index range", idx.Name())
		}
		if _, _, err := idx.Lookup(900, 200); err == nil {
			t.Errorf("%s accepted inverted query", idx.Name())
		}
	}
}

func TestMetadataAccessors(t *testing.T) {
	col := testColumn(t)
	for _, idx := range allVariants(t, col, 10, 99) {
		if idx.Lo() != 10 || idx.Hi() != 99 {
			t.Errorf("%s: range [%d,%d], want [10,99]", idx.Name(), idx.Lo(), idx.Hi())
		}
		if idx.Name() == "" {
			t.Error("empty variant name")
		}
	}
}

func TestPageVectorUpdateScattersOrder(t *testing.T) {
	col := testColumn(t)
	pv, err := NewPageVector(col, 0, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	// Force a page out and back in: it must re-enter at the tail, not in
	// physical order — the §3.1 "scattered order" effect.
	before := make([]uint32, len(pv.ids))
	copy(before, pv.ids)
	victim := int(before[0])

	// Drain the victim page of in-range values.
	pg, _ := col.PageBytes(victim)
	for s := 0; s < storage.ValuesPerPage; s++ {
		if v := storage.ValueAt(pg, s); v <= 100_000 {
			row := victim*storage.ValuesPerPage + s
			old, _ := col.SetValue(row, 900_000)
			if err := pv.ApplyUpdate(row, old, 900_000); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, present := pv.pos[uint32(victim)]; present {
		t.Fatal("drained page still present")
	}
	// Bring it back.
	row := victim * storage.ValuesPerPage
	old, _ := col.SetValue(row, 50)
	if err := pv.ApplyUpdate(row, old, 50); err != nil {
		t.Fatal(err)
	}
	if pv.ids[len(pv.ids)-1] != uint32(victim) {
		t.Fatal("re-added page not at tail: order not scattered as expected")
	}
}

func TestPhysicalScanMirrorsWrites(t *testing.T) {
	col := testColumn(t)
	ps, err := NewPhysicalScan(col, 0, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	// An in-range overwrite of an indexed page must be visible in lookups.
	row := 0
	for p := 0; p < col.NumPages(); p++ {
		if _, ok := ps.pos[uint32(p)]; ok {
			row = p * storage.ValuesPerPage
			break
		}
	}
	old, _ := col.SetValue(row, 123)
	if err := ps.ApplyUpdate(row, old, 123); err != nil {
		t.Fatal(err)
	}
	wantCount, wantSum, _ := col.FullScan(123, 123)
	count, sum, err := ps.Lookup(123, 123)
	if err != nil {
		t.Fatal(err)
	}
	if count != wantCount || sum != wantSum {
		t.Fatalf("copy out of sync: (%d,%d), want (%d,%d)", count, sum, wantCount, wantSum)
	}
}

func TestVirtualViewReleaseFreesArea(t *testing.T) {
	col := testColumn(t)
	before := col.Space().VMACount()
	vv, err := NewVirtualView(col, 0, 100_000, view.CreateOptions{Consecutive: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vv.Release()
	if got := col.Space().VMACount(); got != before {
		t.Fatalf("VMACount %d after release, want %d", got, before)
	}
}

func TestZoneMapSkipsDisjointPages(t *testing.T) {
	// With linear data, a narrow query intersects few zones; the zone map
	// must scan far fewer pages than the column has. We assert indirectly
	// via Pages() on a narrow index range.
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	c, err := storage.NewColumn(k, as, "lin", 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fill(dist.NewLinear(3, 0, 1_000_000, 256)); err != nil {
		t.Fatal(err)
	}
	zm := NewZoneMap(c, 0, 10_000)
	if got := zm.Pages(); got > 10 {
		t.Fatalf("zone map reports %d qualifying pages for a ~1%% range", got)
	}
}
