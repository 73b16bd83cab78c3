package core

import (
	"testing"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/xrand"
)

// checkViewInvariant asserts that view v indexes exactly the pages that
// hold at least one value in its covered range — the correctness invariant
// update alignment must preserve.
func checkViewInvariant(t *testing.T, e *Engine, vIdx int) {
	t.Helper()
	v := e.Views()[vIdx]
	col := e.Column()
	want := map[uint64]bool{}
	for p := 0; p < col.NumPages(); p++ {
		pg, err := col.PageBytes(p)
		if err != nil {
			t.Fatal(err)
		}
		if s := storage.ScanFilter(pg, v.Lo(), v.Hi()); s.Count > 0 {
			want[uint64(p)] = true
		}
	}
	ids, err := v.PageIDs()
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	for _, id := range ids {
		if got[id] {
			t.Fatalf("view %d indexes page %d twice", vIdx, id)
		}
		got[id] = true
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("view %d [%d,%d] misses qualifying page %d", vIdx, v.Lo(), v.Hi(), p)
		}
	}
	for p := range got {
		if !want[p] {
			t.Fatalf("view %d [%d,%d] still indexes non-qualifying page %d", vIdx, v.Lo(), v.Hi(), p)
		}
	}
}

func TestUpdateBuffersAndApplies(t *testing.T) {
	col := testColumn(t, 32, dist.NewUniform(1, 0, 1000))
	e := newEngine(t, col, syncConfig())
	before, _ := col.Value(100)
	if err := e.Update(100, 424242); err != nil {
		t.Fatal(err)
	}
	after, _ := col.Value(100)
	if after != 424242 {
		t.Fatalf("column value %d, want 424242", after)
	}
	if e.PendingUpdates() != 1 {
		t.Fatalf("PendingUpdates = %d", e.PendingUpdates())
	}
	if before == 424242 {
		t.Fatal("test premise broken")
	}
}

func TestFlushEmptyBatch(t *testing.T) {
	col := testColumn(t, 16, dist.NewUniform(1, 0, 1000))
	e := newEngine(t, col, syncConfig())
	st, err := e.FlushUpdates()
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchSize != 0 || st.PagesAdded != 0 {
		t.Fatalf("empty flush: %+v", st)
	}
}

func TestAlignAddsPage(t *testing.T) {
	// Column values 1000..2000; view over [0, 500] is empty. An update
	// writing 100 must pull the page into the view (case 1).
	col := testColumn(t, 32, dist.NewUniform(1, 1000, 2000))
	e := newEngine(t, col, syncConfig())
	created, err := e.CreateViewsOpt([]ViewSpec{{Lo: 0, Hi: 500, Pinned: true}})
	if err != nil {
		t.Fatal(err)
	}
	v := created[0]
	if v.NumPages() != 0 {
		t.Fatalf("premise: view should start empty, has %d pages", v.NumPages())
	}
	if err := e.Update(10*storage.ValuesPerPage+3, 100); err != nil {
		t.Fatal(err)
	}
	st, err := e.FlushUpdates()
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesAdded != 1 || st.PagesRemoved != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if v.NumPages() != 1 {
		t.Fatalf("view has %d pages, want 1", v.NumPages())
	}
	checkViewInvariant(t, e, 0)
	// Query through the engine still matches the ground truth.
	got, err := e.QueryOpt(0, 500, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantSum, _ := col.FullScan(0, 500)
	if got.Count != wantCount || got.Sum != wantSum {
		t.Fatalf("post-align query (%d,%d), want (%d,%d)", got.Count, got.Sum, wantCount, wantSum)
	}
}

func TestAlignRemovesPage(t *testing.T) {
	// Exactly one slot holds an in-range value; overwriting it must evict
	// the page from the view (case 2 with full-page rescan).
	col := testColumn(t, 32, dist.NewUniform(1, 1000, 2000))
	row := 7*storage.ValuesPerPage + 11
	if _, err := col.SetValue(row, 50); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, col, syncConfig())
	created, err := e.CreateViewsOpt([]ViewSpec{{Lo: 0, Hi: 500, Pinned: true}})
	if err != nil {
		t.Fatal(err)
	}
	v := created[0]
	if v.NumPages() != 1 {
		t.Fatalf("premise: view should hold 1 page, has %d", v.NumPages())
	}
	if err := e.Update(row, 1500); err != nil { // out of view range
		t.Fatal(err)
	}
	st, err := e.FlushUpdates()
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesRemoved != 1 || st.PagesAdded != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.PagesScanned != 1 {
		t.Fatalf("expected exactly one rescan, got %d", st.PagesScanned)
	}
	if v.NumPages() != 0 {
		t.Fatalf("view still has %d pages", v.NumPages())
	}
	checkViewInvariant(t, e, 0)
}

func TestAlignKeepsPageWithOtherQualifyingValues(t *testing.T) {
	// Two in-range values on the page; overwriting one must keep the page
	// (the rescan finds the other).
	col := testColumn(t, 32, dist.NewUniform(1, 1000, 2000))
	rowA := 7*storage.ValuesPerPage + 11
	rowB := 7*storage.ValuesPerPage + 12
	_, _ = col.SetValue(rowA, 50)
	_, _ = col.SetValue(rowB, 60)
	e := newEngine(t, col, syncConfig())
	created, _ := e.CreateViewsOpt([]ViewSpec{{Lo: 0, Hi: 500, Pinned: true}})
	v := created[0]
	if err := e.Update(rowA, 1500); err != nil {
		t.Fatal(err)
	}
	st, err := e.FlushUpdates()
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesRemoved != 0 || st.PagesScanned != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if v.NumPages() != 1 {
		t.Fatal("page wrongly evicted")
	}
	checkViewInvariant(t, e, 0)
}

func TestAlignSkipsUnaffectedPages(t *testing.T) {
	// Updates entirely outside the view's range on un-indexed pages must
	// not touch the view, and must not trigger rescans.
	col := testColumn(t, 32, dist.NewUniform(1, 1000, 2000))
	e := newEngine(t, col, syncConfig())
	if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: 0, Hi: 500, Pinned: true}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(3*storage.ValuesPerPage, 1800); err != nil {
		t.Fatal(err)
	}
	st, err := e.FlushUpdates()
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesAdded+st.PagesRemoved+st.PagesScanned != 0 {
		t.Fatalf("unaffected update caused work: %+v", st)
	}
}

func TestSquashingLastWritePerRow(t *testing.T) {
	// Write in-range then out-of-range to the same row in one batch: the
	// squashed update must reflect only (firstOld, lastNew), so the page
	// is NOT added.
	col := testColumn(t, 32, dist.NewUniform(1, 1000, 2000))
	e := newEngine(t, col, syncConfig())
	if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: 0, Hi: 500, Pinned: true}}); err != nil {
		t.Fatal(err)
	}
	row := 9 * storage.ValuesPerPage
	if err := e.Update(row, 100); err != nil { // into range
		t.Fatal(err)
	}
	if err := e.Update(row, 1900); err != nil { // back out
		t.Fatal(err)
	}
	st, err := e.FlushUpdates()
	if err != nil {
		t.Fatal(err)
	}
	if st.NetUpdates != 1 {
		t.Fatalf("NetUpdates = %d, want 1", st.NetUpdates)
	}
	if st.PagesAdded != 0 {
		t.Fatalf("transient value caused page add: %+v", st)
	}
	checkViewInvariant(t, e, 0)
}

func TestAlignMultipleViews(t *testing.T) {
	col := testColumn(t, 64, dist.NewUniform(17, 0, 1_000_000))
	e := newEngine(t, col, syncConfig())
	for _, r := range [][2]uint64{{0, 100_000}, {50_000, 200_000}, {800_000, 900_000}} {
		if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: r[0], Hi: r[1], Pinned: true}}); err != nil {
			t.Fatal(err)
		}
	}
	rng := xrand.New(7)
	for i := 0; i < 500; i++ {
		if err := e.Update(rng.Intn(col.Rows()), rng.Uint64n(1_000_000)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.FlushUpdates(); err != nil {
		t.Fatal(err)
	}
	for i := range e.Views() {
		checkViewInvariant(t, e, i)
	}
	// Ground truth after updates.
	for _, q := range [][2]uint64{{0, 100_000}, {60_000, 190_000}, {820_000, 880_000}} {
		wantCount, wantSum, _ := col.FullScan(q[0], q[1])
		got, err := e.QueryOpt(q[0], q[1], QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != wantCount || got.Sum != wantSum {
			t.Fatalf("post-update query [%d,%d] wrong", q[0], q[1])
		}
	}
}

func TestRepeatedBatchesPreserveInvariant(t *testing.T) {
	col := testColumn(t, 64, dist.NewSine(23, 0, 1_000_000, 8))
	e := newEngine(t, col, syncConfig())
	if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: 100_000, Hi: 300_000, Pinned: true}}); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(31)
	for batch := 0; batch < 10; batch++ {
		for i := 0; i < 200; i++ {
			if err := e.Update(rng.Intn(col.Rows()), rng.Uint64n(1_000_000)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.FlushUpdates(); err != nil {
			t.Fatal(err)
		}
		checkViewInvariant(t, e, 0)
	}
	s := e.Stats()
	if s.UpdateBatches != 10 || s.UpdatesBuffered != 2000 {
		t.Fatalf("stats: %+v", s)
	}
	if s.PagesAdded == 0 || s.PagesRemoved == 0 {
		t.Fatalf("expected both adds and removals over 10 batches: %+v", s)
	}
}

func TestUpdateStatsDurationsPopulated(t *testing.T) {
	col := testColumn(t, 64, dist.NewUniform(3, 0, 1_000_000))
	e := newEngine(t, col, syncConfig())
	if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: 0, Hi: 200_000, Pinned: true}}); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	for i := 0; i < 100; i++ {
		_ = e.Update(rng.Intn(col.Rows()), rng.Uint64n(1_000_000))
	}
	st, err := e.FlushUpdates()
	if err != nil {
		t.Fatal(err)
	}
	if st.MapsBytes == 0 || st.MapsLines == 0 {
		t.Fatalf("maps metrics empty: %+v", st)
	}
	if st.ParseDuration <= 0 || st.AlignDuration < 0 {
		t.Fatalf("durations: %+v", st)
	}
	if st.DirtyPages == 0 || st.NetUpdates == 0 {
		t.Fatalf("batch metrics: %+v", st)
	}
}

func TestAlignViewsDirectBatch(t *testing.T) {
	// One buffered write, flushed, adds its page to the covering view.
	col := testColumn(t, 32, dist.NewUniform(1, 1000, 2000))
	e := newEngine(t, col, syncConfig())
	if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: 0, Hi: 500, Pinned: true}}); err != nil {
		t.Fatal(err)
	}
	row := 4 * storage.ValuesPerPage
	if err := e.Update(row, 42); err != nil {
		t.Fatal(err)
	}
	st, err := e.FlushUpdates()
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesAdded != 1 {
		t.Fatalf("stats: %+v", st)
	}
	checkViewInvariant(t, e, 0)
}

func TestAlignNoViewsCheap(t *testing.T) {
	col := testColumn(t, 32, dist.NewUniform(1, 0, 100))
	e := newEngine(t, col, syncConfig())
	if err := e.Update(5, 7); err != nil {
		t.Fatal(err)
	}
	st, err := e.FlushUpdates()
	if err != nil {
		t.Fatal(err)
	}
	// With no partial views there is nothing to parse or align.
	if st.MapsLines != 0 || st.ParseDuration != 0 {
		t.Fatalf("no-view flush did work: %+v", st)
	}
}
