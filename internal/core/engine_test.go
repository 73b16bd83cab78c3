package core

import (
	"testing"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/viewset"
	"github.com/asv-db/asv/internal/vmsim"
	"github.com/asv-db/asv/internal/xrand"
)

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

func newEngine(t testing.TB, col *storage.Column, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(col, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

// syncConfig disables the background mapper for deterministic tests.
func syncConfig() Config {
	cfg := DefaultConfig()
	cfg.Create = view.CreateOptions{Consecutive: true, Lazy: true}
	return cfg
}

func TestConfigValidation(t *testing.T) {
	col := testColumn(t, 8, dist.NewUniform(1, 0, 10))
	bad := []Config{
		{Mode: Mode(9), Adaptive: true},
		func() Config { c := DefaultConfig(); c.MaxViews = -1; return c }(),
		func() Config { c := DefaultConfig(); c.DiscardTolerance = -1; return c }(),
		func() Config { c := DefaultConfig(); c.ReplaceTolerance = -1; return c }(),
	}
	for i, cfg := range bad {
		if _, err := NewEngine(col, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestQueryMatchesFullScanSingleView(t *testing.T) {
	col := testColumn(t, 200, dist.NewSine(3, 0, 100_000_000, 20))
	e := newEngine(t, col, syncConfig())
	rng := xrand.New(99)
	for i := 0; i < 60; i++ {
		width := uint64(1+rng.Intn(30)) * 1_000_000
		lo := rng.Uint64n(100_000_000 - width)
		hi := lo + width
		wantCount, wantSum, err := col.FullScan(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.QueryOpt(lo, hi, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != wantCount || got.Sum != wantSum {
			t.Fatalf("query %d [%d,%d]: got (%d,%d), want (%d,%d); %d views",
				i, lo, hi, got.Count, got.Sum, wantCount, wantSum, e.ViewSet().Len())
		}
	}
	if e.ViewSet().Len() == 0 {
		t.Fatal("no partial views were created over the sequence")
	}
}

func TestQueryMatchesFullScanMultiView(t *testing.T) {
	col := testColumn(t, 200, dist.NewSine(7, 0, 100_000_000, 20))
	cfg := syncConfig()
	cfg.Mode = MultiView
	cfg.MaxViews = 50
	e := newEngine(t, col, cfg)
	rng := xrand.New(5)
	for i := 0; i < 80; i++ {
		width := uint64(2_000_000)
		lo := rng.Uint64n(100_000_000 - width)
		hi := lo + width
		wantCount, wantSum, err := col.FullScan(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.QueryOpt(lo, hi, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != wantCount || got.Sum != wantSum {
			t.Fatalf("query %d [%d,%d]: got (%d,%d), want (%d,%d)",
				i, lo, hi, got.Count, got.Sum, wantCount, wantSum)
		}
	}
}

func TestMultiViewStitchesViews(t *testing.T) {
	col := testColumn(t, 256, dist.NewLinear(1, 0, 1_000_000, 256))
	cfg := syncConfig()
	cfg.Mode = MultiView
	e := newEngine(t, col, cfg)

	// Seed two adjacent views directly.
	if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: 100_000, Hi: 300_000, Pinned: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: 300_001, Hi: 500_000, Pinned: true}}); err != nil {
		t.Fatal(err)
	}

	got, err := e.QueryOpt(150_000, 450_000, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.ViewsUsed != 2 || got.UsedFullView {
		t.Fatalf("ViewsUsed=%d UsedFullView=%v, want 2/false", got.ViewsUsed, got.UsedFullView)
	}
	wantCount, wantSum, _ := col.FullScan(150_000, 450_000)
	if got.Count != wantCount || got.Sum != wantSum {
		t.Fatalf("stitched answer (%d,%d), want (%d,%d)", got.Count, got.Sum, wantCount, wantSum)
	}
}

func TestMultiViewDedupsSharedPages(t *testing.T) {
	col := testColumn(t, 256, dist.NewLinear(1, 0, 1_000_000, 256))
	cfg := syncConfig()
	cfg.Mode = MultiView
	e := newEngine(t, col, cfg)
	// Heavily overlapping views share most physical pages.
	if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: 100_000, Hi: 400_000, Pinned: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: 300_000, Hi: 600_000, Pinned: true}}); err != nil {
		t.Fatal(err)
	}

	got, err := e.QueryOpt(150_000, 550_000, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantSum, _ := col.FullScan(150_000, 550_000)
	if got.Count != wantCount || got.Sum != wantSum {
		t.Fatalf("dedup answer (%d,%d), want (%d,%d) — shared pages double-counted?",
			got.Count, got.Sum, wantCount, wantSum)
	}
	// Scanned pages must not exceed the union of both views.
	union := map[uint64]bool{}
	for _, v := range e.Views()[:2] {
		ids, _ := v.PageIDs()
		for _, id := range ids {
			union[id] = true
		}
	}
	if got.PagesScanned > len(union) {
		t.Fatalf("scanned %d pages, union is %d", got.PagesScanned, len(union))
	}
}

func TestAdaptivityReducesScannedPages(t *testing.T) {
	col := testColumn(t, 256, dist.NewSine(11, 0, 100_000_000, 20))
	e := newEngine(t, col, syncConfig())

	first, err := e.QueryOpt(10_000_000, 12_000_000, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.PagesScanned != col.NumPages() {
		t.Fatalf("first query scanned %d pages, want full scan %d", first.PagesScanned, col.NumPages())
	}
	second, err := e.QueryOpt(10_500_000, 11_500_000, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if second.PagesScanned >= first.PagesScanned {
		t.Fatalf("second query scanned %d pages, first %d — no adaptivity", second.PagesScanned, first.PagesScanned)
	}
	if second.UsedFullView {
		t.Fatal("second query still used the full view")
	}
}

func TestViewLimitFreezesGeneration(t *testing.T) {
	col := testColumn(t, 128, dist.NewLinear(5, 0, 1_000_000, 128))
	cfg := syncConfig()
	cfg.MaxViews = 2
	e := newEngine(t, col, cfg)
	rng := xrand.New(1)
	for i := 0; i < 20; i++ {
		lo := rng.Uint64n(900_000)
		if _, err := e.QueryOpt(lo, lo+20_000, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if e.ViewSet().Len() > 2 {
		t.Fatalf("view count %d exceeds limit", e.ViewSet().Len())
	}
	if !e.ViewSet().Frozen() {
		t.Fatal("set not frozen after exceeding limit")
	}
	// Frozen: queries no longer build candidates.
	res, err := e.QueryOpt(1, 2, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidateBuilt {
		t.Fatal("candidate built after freeze")
	}
}

func TestBaselineAlwaysFullScans(t *testing.T) {
	col := testColumn(t, 64, dist.NewUniform(3, 0, 1_000_000))
	e := newEngine(t, col, BaselineConfig())
	for i := 0; i < 5; i++ {
		res, err := e.QueryOpt(0, 500_000, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.UsedFullView || res.PagesScanned != col.NumPages() {
			t.Fatalf("baseline query %d: %+v", i, res)
		}
	}
	if e.ViewSet().Len() != 0 {
		t.Fatal("baseline created views")
	}
	wantCount, wantSum, _ := col.FullScan(0, 500_000)
	res, _ := e.QueryOpt(0, 500_000, QueryOptions{})
	if res.Count != wantCount || res.Sum != wantSum {
		t.Fatal("baseline answer wrong")
	}
}

func TestQuerySwapsInvertedRange(t *testing.T) {
	col := testColumn(t, 32, dist.NewUniform(3, 0, 1000))
	e := newEngine(t, col, syncConfig())
	a, err := e.QueryOpt(500, 100, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantSum, _ := col.FullScan(100, 500)
	if a.Count != wantCount || a.Sum != wantSum {
		t.Fatal("inverted range not normalized")
	}
}

func TestStatsAccumulate(t *testing.T) {
	col := testColumn(t, 64, dist.NewLinear(3, 0, 1_000_000, 64))
	e := newEngine(t, col, syncConfig())
	if _, err := e.QueryOpt(0, 100_000, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryOpt(10_000, 20_000, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Queries != 2 || s.PagesScanned == 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s.ViewsCreated == 0 {
		t.Fatalf("no views created: %+v", s)
	}
}

func TestDecisionTelemetry(t *testing.T) {
	col := testColumn(t, 128, dist.NewLinear(5, 0, 1_000_000, 128))
	e := newEngine(t, col, syncConfig())
	res, err := e.QueryOpt(100_000, 200_000, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CandidateBuilt || res.Decision != viewset.Inserted {
		t.Fatalf("first query: %+v", res)
	}
	// Same query again: candidate covers the identical range and pages ->
	// discarded as subset (d=0 keeps it out since pages are equal).
	res, err = e.QueryOpt(100_000, 200_000, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != viewset.DiscardedSubset {
		t.Fatalf("repeat query decision = %v", res.Decision)
	}
}

func TestCreateViewAndClose(t *testing.T) {
	col := testColumn(t, 64, dist.NewUniform(9, 0, 1_000_000))
	e := newEngine(t, col, syncConfig())
	created, err := e.CreateViewsOpt([]ViewSpec{{Lo: 0, Hi: 100_000, Pinned: true}})
	if err != nil {
		t.Fatal(err)
	}
	v := created[0]
	if v.NumPages() == 0 {
		t.Fatal("created view is empty")
	}
	vmasBefore := col.Space().VMACount()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := col.Space().VMACount(); got >= vmasBefore {
		t.Fatalf("Close did not release view areas: %d -> %d", vmasBefore, got)
	}
	if e.ViewSet().Len() != 0 {
		t.Fatal("views remain after Close")
	}
}

// TestCreateRangeExtension: a query-built candidate claims the §2.2
// extended range [l'+1, u'-1], and indexes every page that holds a value
// in it. Linear data clusters values, so neighbouring excluded pages
// carry values strictly below lo and above hi and the range widens on
// both sides.
func TestCreateRangeExtension(t *testing.T) {
	col := testColumn(t, 128, dist.NewLinear(3, 0, ccDomain, 128))
	e := newEngine(t, col, syncConfig())
	lo, hi := uint64(ccDomain/5), uint64(2*ccDomain/5)
	if _, err := e.QueryOpt(lo, hi, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	vs := e.Views()
	if len(vs) != 1 {
		t.Fatalf("query kept %d views, want its candidate", len(vs))
	}
	if v := vs[0]; v.Lo() >= lo || v.Hi() <= hi {
		t.Fatalf("no extension on both sides: view [%d,%d], query [%d,%d]", v.Lo(), v.Hi(), lo, hi)
	}
	checkViewInvariant(t, e, 0)
}

func TestRebuildViews(t *testing.T) {
	col := testColumn(t, 128, dist.NewUniform(13, 0, 1_000_000))
	e := newEngine(t, col, syncConfig())
	if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: 0, Hi: 50_000, Pinned: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: 600_000, Hi: 700_000}}); err != nil {
		t.Fatal(err)
	}
	ranges := [][2]uint64{}
	for _, v := range e.Views() {
		ranges = append(ranges, [2]uint64{v.Lo(), v.Hi()})
	}
	if err := e.RebuildViews(); err != nil {
		t.Fatal(err)
	}
	if e.ViewSet().Len() != 2 {
		t.Fatalf("rebuild produced %d views", e.ViewSet().Len())
	}
	for i, v := range e.Views() {
		if v.Lo() != ranges[i][0] || v.Hi() != ranges[i][1] {
			t.Fatalf("view %d range [%d,%d], want %v", i, v.Lo(), v.Hi(), ranges[i])
		}
		if v.Pinned() != (i == 0) {
			t.Fatalf("view %d pinned = %v after rebuild", i, v.Pinned())
		}
		// Rebuilt views answer correctly.
		r, err := v.Scan(v.Lo(), v.Hi())
		if err != nil {
			t.Fatal(err)
		}
		wantCount, wantSum, _ := col.FullScan(v.Lo(), v.Hi())
		if r.Count != wantCount || r.Sum != wantSum {
			t.Fatalf("rebuilt view %d wrong: (%d,%d) want (%d,%d)", i, r.Count, r.Sum, wantCount, wantSum)
		}
	}
}

func TestConcurrentMapperEngine(t *testing.T) {
	col := testColumn(t, 128, dist.NewSine(21, 0, 100_000_000, 16))
	cfg := DefaultConfig() // both optimizations, incl. concurrent mapper
	e := newEngine(t, col, cfg)
	rng := xrand.New(3)
	for i := 0; i < 40; i++ {
		lo := rng.Uint64n(90_000_000)
		hi := lo + 5_000_000
		wantCount, wantSum, _ := col.FullScan(lo, hi)
		got, err := e.QueryOpt(lo, hi, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != wantCount || got.Sum != wantSum {
			t.Fatalf("query %d wrong under concurrent mapper", i)
		}
	}
	if e.ViewSet().Len() == 0 {
		t.Fatal("no views created")
	}
}

func TestEngineString(t *testing.T) {
	col := testColumn(t, 16, dist.NewUniform(1, 0, 10))
	e := newEngine(t, col, syncConfig())
	if e.String() == "" || Mode(0).String() == "" || Mode(99).String() == "" {
		t.Fatal("empty String()")
	}
}
