package view

import (
	"testing"
	"testing/quick"

	"github.com/asv-db/asv/internal/bitvec"
	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/vmsim"
)

// testColumn builds a filled column for view tests.
func testColumn(t testing.TB, pages int, g dist.Generator) *storage.Column {
	t.Helper()
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1 << 30)
	c, err := storage.NewColumn(k, as, "col", pages)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fill(g); err != nil {
		t.Fatal(err)
	}
	return c
}

// qualifyingPages returns the page IDs holding at least one value in [lo,hi].
func qualifyingPages(t testing.TB, c *storage.Column, lo, hi uint64) map[uint64]bool {
	t.Helper()
	out := map[uint64]bool{}
	for p := 0; p < c.NumPages(); p++ {
		pg, err := c.PageBytes(p)
		if err != nil {
			t.Fatal(err)
		}
		if s := storage.ScanFilter(pg, lo, hi); s.Count > 0 {
			out[uint64(p)] = true
		}
	}
	return out
}

func TestFullViewProperties(t *testing.T) {
	c := testColumn(t, 32, dist.NewUniform(1, 0, 1000))
	fv, err := NewFull(c)
	if err != nil {
		t.Fatal(err)
	}
	if !fv.Full() || fv.NumPages() != 32 {
		t.Fatalf("full view: full=%v pages=%d", fv.Full(), fv.NumPages())
	}
	if fv.Lo() != 0 || fv.Hi() != ^uint64(0) {
		t.Fatal("full view range not [-inf, inf]")
	}
	if !fv.Covers(0, ^uint64(0)) {
		t.Fatal("full view does not cover everything")
	}
	// Release must be a no-op.
	if err := fv.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := fv.PageBytes(0); err != nil {
		t.Fatal("full view unusable after no-op Release")
	}
	if _, err := fv.AppendPage(0); err != ErrFullView {
		t.Fatalf("AppendPage on full view: %v", err)
	}
	if _, err := fv.RemovePageAt(0); err != ErrFullView {
		t.Fatalf("RemovePageAt on full view: %v", err)
	}
}

func TestCreateIndexesExactlyQualifyingPages(t *testing.T) {
	c := testColumn(t, 128, dist.NewLinear(3, 0, 100_000, 128))
	lo, hi := uint64(20_000), uint64(40_000)
	want := qualifyingPages(t, c, lo, hi)

	v, err := Create(c, lo, hi, CreateOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := v.PageIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(want) {
		t.Fatalf("view indexes %d pages, want %d", len(ids), len(want))
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("view indexes non-qualifying page %d", id)
		}
	}
	// Covered range must include the query range (possibly extended).
	if !v.Covers(lo, hi) {
		t.Fatalf("view range [%d,%d] does not cover query", v.Lo(), v.Hi())
	}
}

func TestCreateRangeExtension(t *testing.T) {
	// Linear data clusters values, so the extension should widen the range
	// beyond the query on both sides (neighbouring excluded pages carry
	// values strictly below lo / above hi).
	c := testColumn(t, 128, dist.NewLinear(3, 0, 100_000, 128))
	lo, hi := uint64(20_000), uint64(40_000)
	v, err := Create(c, lo, hi, CreateOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Lo() >= lo && v.Hi() <= hi {
		t.Fatalf("no extension happened: view [%d,%d], query [%d,%d]", v.Lo(), v.Hi(), lo, hi)
	}
	// Extension correctness: every page with a value in the extended range
	// must be indexed.
	want := qualifyingPages(t, c, v.Lo(), v.Hi())
	ids, _ := v.PageIDs()
	got := map[uint64]bool{}
	for _, id := range ids {
		got[id] = true
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("extended range [%d,%d] misses page %d", v.Lo(), v.Hi(), p)
		}
	}
}

func TestViewScanMatchesFullScan(t *testing.T) {
	c := testColumn(t, 96, dist.NewSine(5, 0, 100_000_000, 10))
	lo, hi := uint64(10_000_000), uint64(30_000_000)
	v, err := Create(c, lo, hi, CreateOptions{Consecutive: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantSum, err := c.FullScan(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.Scan(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != wantCount || got.Sum != wantSum {
		t.Fatalf("view scan (%d,%d) != full scan (%d,%d)", got.Count, got.Sum, wantCount, wantSum)
	}
	if got.PagesScanned >= c.NumPages() {
		t.Fatalf("view scanned %d pages, full column is %d", got.PagesScanned, c.NumPages())
	}
}

func TestSubqueryThroughView(t *testing.T) {
	// Any query within the view's covered range must be answerable.
	c := testColumn(t, 64, dist.NewUniform(11, 0, 1_000_000))
	v, err := Create(c, 100_000, 500_000, CreateOptions{Consecutive: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]uint64{{100_000, 500_000}, {200_000, 300_000}, {499_000, 500_000}} {
		wantCount, wantSum, _ := c.FullScan(q[0], q[1])
		got, err := v.Scan(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != wantCount || got.Sum != wantSum {
			t.Fatalf("query [%d,%d]: view (%d,%d), full (%d,%d)",
				q[0], q[1], got.Count, got.Sum, wantCount, wantSum)
		}
	}
}

func TestScanDedupSkipsProcessedPages(t *testing.T) {
	c := testColumn(t, 32, dist.NewUniform(2, 0, 1000))
	v1, err := Create(c, 0, 500, CreateOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Create(c, 200, 800, CreateOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both views share pages (uniform data qualifies almost everywhere).
	processed := bitvec.New(c.NumPages())
	r1, err := v1.ScanDedup(300, 400, processed)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := v2.ScanDedup(300, 400, processed)
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantSum, _ := c.FullScan(300, 400)
	if r1.Count+r2.Count != wantCount || r1.Sum+r2.Sum != wantSum {
		t.Fatalf("dedup scan total (%d,%d), want (%d,%d)",
			r1.Count+r2.Count, r1.Sum+r2.Sum, wantCount, wantSum)
	}
	if r2.PagesScanned != 0 && r1.PagesScanned+r2.PagesScanned > c.NumPages() {
		t.Fatalf("scanned %d+%d pages from a %d-page column",
			r1.PagesScanned, r2.PagesScanned, c.NumPages())
	}
}

func TestConsecutiveOptimizationReducesMmapCalls(t *testing.T) {
	// Linear data: qualifying pages are one contiguous run.
	c := testColumn(t, 256, dist.NewLinear(7, 0, 1_000_000, 256))
	statsBefore := c.Space().Stats()
	v1, err := Create(c, 0, 250_000, CreateOptions{Consecutive: false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	unopt := c.Space().Stats().MmapCalls - statsBefore.MmapCalls

	statsBefore = c.Space().Stats()
	v2, err := Create(c, 0, 250_000, CreateOptions{Consecutive: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := c.Space().Stats().MmapCalls - statsBefore.MmapCalls

	if v1.NumPages() != v2.NumPages() {
		t.Fatalf("page counts differ: %d vs %d", v1.NumPages(), v2.NumPages())
	}
	// Unoptimized: one call per page (+1 reservation). Optimized: one call
	// per run (+1 reservation); on linear data that is a single run.
	if opt >= unopt {
		t.Fatalf("consecutive mapping used %d calls, unoptimized %d", opt, unopt)
	}
	if opt > 3 {
		t.Fatalf("expected ~2 calls on contiguous data, got %d", opt)
	}
}

func TestConcurrentCreationMatchesSynchronous(t *testing.T) {
	c := testColumn(t, 128, dist.NewSine(9, 0, 1_000_000, 16))
	m := NewMapper()
	defer m.Stop()

	sync1, err := Create(c, 100_000, 300_000, CreateOptions{Consecutive: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := Create(c, 100_000, 300_000, CreateOptions{Consecutive: true, Concurrent: true}, m)
	if err != nil {
		t.Fatal(err)
	}
	if sync1.NumPages() != conc.NumPages() {
		t.Fatalf("page counts differ: sync %d, concurrent %d", sync1.NumPages(), conc.NumPages())
	}
	a, err := sync1.Scan(150_000, 250_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := conc.Scan(150_000, 250_000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != b.Count || a.Sum != b.Sum {
		t.Fatalf("scans differ: %+v vs %+v", a, b)
	}
}

func TestConcurrentRequiresMapper(t *testing.T) {
	c := testColumn(t, 8, dist.NewUniform(1, 0, 10))
	if _, err := NewBuilder(c, CreateOptions{Concurrent: true}, nil); err == nil {
		t.Fatal("builder accepted Concurrent without a Mapper")
	}
}

func TestAppendPage(t *testing.T) {
	c := testColumn(t, 64, dist.NewUniform(4, 100, 1000))
	v, err := Create(c, 0, 50, CreateOptions{}, nil) // matches nothing -> 0 pages
	if err != nil {
		t.Fatal(err)
	}
	if v.NumPages() != 0 {
		t.Fatalf("empty view has %d pages", v.NumPages())
	}
	vpn, err := v.AppendPage(7)
	if err != nil {
		t.Fatal(err)
	}
	if vpn != v.BaseVPN() {
		t.Fatalf("first append landed at vpn %#x, want base %#x", vpn, v.BaseVPN())
	}
	if v.NumPages() != 1 {
		t.Fatalf("NumPages = %d after append", v.NumPages())
	}
	pg, err := v.PageBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	if storage.PageID(pg) != 7 {
		t.Fatalf("appended page has ID %d, want 7", storage.PageID(pg))
	}
}

func TestAppendPageCapacity(t *testing.T) {
	c := testColumn(t, 4, dist.NewUniform(4, 0, 10))
	v, err := Create(c, 0, ^uint64(0), CreateOptions{Consecutive: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumPages() != 4 {
		t.Fatalf("NumPages = %d", v.NumPages())
	}
	if _, err := v.AppendPage(0); err == nil {
		t.Fatal("append beyond capacity succeeded")
	}
}

func TestRemovePageAtCompacts(t *testing.T) {
	c := testColumn(t, 16, dist.NewUniform(4, 0, 10))
	v, err := Create(c, 0, ^uint64(0), CreateOptions{Consecutive: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Remove slot 3: last page (15) must move into the hole.
	res, err := v.RemovePageAt(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedFilePage != 15 {
		t.Fatalf("MovedFilePage = %d, want 15", res.MovedFilePage)
	}
	if res.MovedToVPN != v.BaseVPN()+3 {
		t.Fatalf("MovedToVPN = %#x", res.MovedToVPN)
	}
	if v.NumPages() != 15 {
		t.Fatalf("NumPages = %d", v.NumPages())
	}
	pg, _ := v.PageBytes(3)
	if storage.PageID(pg) != 15 {
		t.Fatalf("slot 3 now holds page %d, want 15", storage.PageID(pg))
	}
	// Removing the (new) last page moves nothing.
	res, err = v.RemovePageAt(v.NumPages() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedFilePage != -1 {
		t.Fatalf("MovedFilePage = %d, want -1", res.MovedFilePage)
	}
	if v.NumPages() != 14 {
		t.Fatalf("NumPages = %d", v.NumPages())
	}
	// Out-of-range slot rejected.
	if _, err := v.RemovePageAt(99); err == nil {
		t.Fatal("bad slot accepted")
	}
}

func TestReleaseFreesVirtualArea(t *testing.T) {
	c := testColumn(t, 32, dist.NewUniform(4, 0, 1000))
	before := c.Space().VMACount()
	v, err := Create(c, 0, 500, CreateOptions{Consecutive: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Release(); err != nil {
		t.Fatal(err)
	}
	if got := c.Space().VMACount(); got != before {
		t.Fatalf("VMACount = %d after release, want %d", got, before)
	}
	// Double release is harmless.
	if err := v.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderAbort(t *testing.T) {
	c := testColumn(t, 32, dist.NewUniform(4, 0, 1000))
	before := c.Space().VMACount()
	b, err := NewBuilder(c, CreateOptions{Consecutive: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.AddPage(1)
	b.AddPage(2)
	b.AddPage(10)
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := c.Space().VMACount(); got != before {
		t.Fatalf("VMACount = %d after abort, want %d", got, before)
	}
}

func TestBuilderPendingPages(t *testing.T) {
	c := testColumn(t, 32, dist.NewUniform(4, 0, 1000))
	b, err := NewBuilder(c, CreateOptions{Consecutive: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Abort() }()
	for _, p := range []int{3, 4, 5, 9} {
		b.AddPage(p)
	}
	if got := b.PendingPages(); got != 4 {
		t.Fatalf("PendingPages = %d, want 4", got)
	}
}

func TestCoverPredicates(t *testing.T) {
	a := &View{lo: 10, hi: 20}
	b := &View{lo: 5, hi: 25}
	if !a.CoversSubsetOf(b) || a.CoversSupersetOf(b) {
		t.Fatal("subset relation wrong")
	}
	if !b.CoversSupersetOf(a) || b.CoversSubsetOf(a) {
		t.Fatal("superset relation wrong")
	}
	if !a.CoversSubsetOf(a) || !a.CoversSupersetOf(a) {
		t.Fatal("equal ranges must be both subset and superset")
	}
	if !a.Overlaps(20, 30) || a.Overlaps(21, 30) {
		t.Fatal("overlap predicate wrong")
	}
	if !a.Covers(10, 20) || a.Covers(9, 20) {
		t.Fatal("covers predicate wrong")
	}
}

func TestRangeExtender(t *testing.T) {
	e := NewRangeExtender(100, 200)
	// No observations: extends to the full domain.
	lo, hi := e.Range()
	if lo != 0 || hi != ^uint64(0) {
		t.Fatalf("empty extender range [%d,%d]", lo, hi)
	}
	e.ObserveExcluded(storage.PageScan{HasBelow: true, MaxBelow: 80})
	e.ObserveExcluded(storage.PageScan{HasBelow: true, MaxBelow: 95, HasAbove: true, MinAbove: 250})
	e.ObserveExcluded(storage.PageScan{HasAbove: true, MinAbove: 240})
	lo, hi = e.Range()
	if lo != 96 || hi != 239 {
		t.Fatalf("extended range [%d,%d], want [96,239]", lo, hi)
	}
}

// Property: for random query ranges on random distributions, a created
// view answers any subquery of its covered range exactly like a full scan.
func TestQuickViewEquivalence(t *testing.T) {
	c := testColumn(t, 64, dist.NewUniform(21, 0, 1<<20))
	f := func(aRaw, bRaw, cRaw, dRaw uint32) bool {
		a, b := uint64(aRaw)%(1<<20), uint64(bRaw)%(1<<20)
		if a > b {
			a, b = b, a
		}
		v, err := Create(c, a, b, CreateOptions{Consecutive: true}, nil)
		if err != nil {
			return false
		}
		defer func() { _ = v.Release() }()
		// Subquery inside [a, b].
		qa := a + uint64(cRaw)%(b-a+1)
		qb := a + uint64(dRaw)%(b-a+1)
		if qa > qb {
			qa, qb = qb, qa
		}
		wantCount, wantSum, err := c.FullScan(qa, qb)
		if err != nil {
			return false
		}
		got, err := v.Scan(qa, qb)
		if err != nil {
			return false
		}
		return got.Count == wantCount && got.Sum == wantSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCreateUnoptimized(b *testing.B) {
	c := testColumn(b, 1024, dist.NewUniform(1, 0, 100_000_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := Create(c, 0, 40_000_000, CreateOptions{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		_ = v.Release()
		b.StartTimer()
	}
}

func BenchmarkCreateBothOptimizations(b *testing.B) {
	c := testColumn(b, 1024, dist.NewUniform(1, 0, 100_000_000))
	m := NewMapper()
	defer m.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := Create(c, 0, 40_000_000, AllOptimizations, m)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		_ = v.Release()
		b.StartTimer()
	}
}
