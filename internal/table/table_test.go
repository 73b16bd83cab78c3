package table

import (
	"testing"

	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/vmsim"
	"github.com/asv-db/asv/internal/xrand"
)

func syncConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Create = view.CreateOptions{Consecutive: true, Lazy: true}
	return cfg
}

func newTestTable(t *testing.T, pages int, cols []string) *Table {
	t.Helper()
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1 << 30)
	tbl, err := New(k, as, "orders", pages, cols, syncConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tbl.Close() })
	return tbl
}

func fillColumn(t *testing.T, tbl *Table, col string, g dist.Generator) {
	t.Helper()
	eng, err := tbl.Engine(col)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Column().Fill(g); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	if _, err := New(k, as, "t", 8, nil, syncConfig()); err == nil {
		t.Fatal("empty column list accepted")
	}
	if _, err := New(k, as, "t", 8, []string{"a", "a"}, syncConfig()); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestAccessors(t *testing.T) {
	tbl := newTestTable(t, 16, []string{"a", "b"})
	if tbl.Name() != "orders" || tbl.NumPages() != 16 {
		t.Fatalf("Name=%q NumPages=%d", tbl.Name(), tbl.NumPages())
	}
	if tbl.Rows() != 16*storage.ValuesPerPage {
		t.Fatalf("Rows = %d", tbl.Rows())
	}
	cols := tbl.Columns()
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("Columns = %v", cols)
	}
	if _, err := tbl.Engine("zzz"); err == nil {
		t.Fatal("phantom column accepted")
	}
}

// refRow mirrors column contents for ground-truth conjunctions.
type refTable struct {
	cols map[string][]uint64
}

func mirror(t *testing.T, tbl *Table) *refTable {
	t.Helper()
	ref := &refTable{cols: map[string][]uint64{}}
	for _, cn := range tbl.Columns() {
		eng, _ := tbl.Engine(cn)
		vals := make([]uint64, tbl.Rows())
		for r := range vals {
			v, err := eng.Column().Value(r)
			if err != nil {
				t.Fatal(err)
			}
			vals[r] = v
		}
		ref.cols[cn] = vals
	}
	return ref
}

func (ref *refTable) selectRows(preds []Predicate) map[int]bool {
	out := map[int]bool{}
	n := 0
	for _, vals := range ref.cols {
		n = len(vals)
		break
	}
	for r := 0; r < n; r++ {
		ok := true
		for _, p := range preds {
			v := ref.cols[p.Column][r]
			if v < p.Lo || v > p.Hi {
				ok = false
				break
			}
		}
		if ok {
			out[r] = true
		}
	}
	return out
}

func TestSelectConjunction(t *testing.T) {
	tbl := newTestTable(t, 48, []string{"price", "qty"})
	fillColumn(t, tbl, "price", dist.NewUniform(1, 0, 10_000))
	fillColumn(t, tbl, "qty", dist.NewSine(2, 0, 1_000, 6))
	ref := mirror(t, tbl)

	preds := []Predicate{
		{Column: "price", Lo: 1000, Hi: 4000},
		{Column: "qty", Lo: 0, Hi: 100}, // hits the sine trough band
	}
	res, err := tbl.Select(preds)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.selectRows(preds)
	if res.Rows.Len() != len(want) {
		t.Fatalf("Select = %d rows, want %d", res.Rows.Len(), len(want))
	}
	res.Rows.ForEach(func(r int) bool {
		if !want[r] {
			t.Fatalf("spurious row %d", r)
		}
		return true
	})
	if res.PagesScanned == 0 || res.ViewsUsed < 2 {
		t.Fatalf("telemetry: %+v", res)
	}
	// Count agrees with Select.
	n, err := tbl.Count(preds)
	if err != nil || n != len(want) {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestSelectAdaptsPerColumn(t *testing.T) {
	tbl := newTestTable(t, 64, []string{"a", "b"})
	fillColumn(t, tbl, "a", dist.NewSine(3, 0, 1_000_000, 8))
	fillColumn(t, tbl, "b", dist.NewLinear(4, 0, 1_000_000, 64))

	preds := []Predicate{
		{Column: "a", Lo: 100_000, Hi: 200_000},
		{Column: "b", Lo: 500_000, Hi: 700_000},
	}
	first, err := tbl.Select(preds)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tbl.Select(preds)
	if err != nil {
		t.Fatal(err)
	}
	if second.PagesScanned >= first.PagesScanned {
		t.Fatalf("no adaptivity across Select calls: %d -> %d pages",
			first.PagesScanned, second.PagesScanned)
	}
	if second.Rows.Len() != first.Rows.Len() {
		t.Fatal("result changed between identical selects")
	}
	for _, cn := range []string{"a", "b"} {
		eng, _ := tbl.Engine(cn)
		if eng.ViewSet().Len() == 0 {
			t.Fatalf("column %s built no views", cn)
		}
	}
}

func TestSelectEmptyIntersectionEarlyExit(t *testing.T) {
	tbl := newTestTable(t, 32, []string{"a", "b"})
	fillColumn(t, tbl, "a", dist.NewUniform(5, 0, 1000))
	fillColumn(t, tbl, "b", dist.NewUniform(6, 5000, 9000))

	res, err := tbl.Select([]Predicate{
		{Column: "b", Lo: 0, Hi: 100}, // matches nothing
		{Column: "a", Lo: 0, Hi: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 0 {
		t.Fatalf("rows = %d, want 0", res.Rows.Len())
	}
}

func TestSelectValidation(t *testing.T) {
	tbl := newTestTable(t, 16, []string{"a"})
	if _, err := tbl.Select(nil); err == nil {
		t.Fatal("empty predicates accepted")
	}
	if _, err := tbl.Select([]Predicate{{Column: "nope", Lo: 0, Hi: 1}}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if Predicate.String(Predicate{Column: "a", Lo: 1, Hi: 2}) == "" {
		t.Fatal("empty predicate string")
	}
}

func TestGetAndUpdate(t *testing.T) {
	tbl := newTestTable(t, 16, []string{"a", "b"})
	fillColumn(t, tbl, "a", dist.NewUniform(7, 0, 100))
	fillColumn(t, tbl, "b", dist.NewUniform(8, 0, 100))

	if err := tbl.Update("a", 10, 42); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update("b", 10, 77); err != nil {
		t.Fatal(err)
	}
	if err := tbl.FlushUpdates(); err != nil {
		t.Fatal(err)
	}
	vals, err := tbl.Get(10, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 42 || vals[1] != 77 {
		t.Fatalf("Get = %v", vals)
	}
	if err := tbl.Update("zzz", 0, 1); err == nil {
		t.Fatal("update on phantom column accepted")
	}
	if _, err := tbl.Get(0, []string{"zzz"}); err == nil {
		t.Fatal("get on phantom column accepted")
	}
}

func TestSelectAfterUpdatesMatchesGroundTruth(t *testing.T) {
	tbl := newTestTable(t, 32, []string{"x", "y"})
	fillColumn(t, tbl, "x", dist.NewUniform(9, 0, 10_000))
	fillColumn(t, tbl, "y", dist.NewUniform(10, 0, 10_000))

	preds := []Predicate{
		{Column: "x", Lo: 1000, Hi: 3000},
		{Column: "y", Lo: 2000, Hi: 6000},
	}
	// Warm the views.
	if _, err := tbl.Select(preds); err != nil {
		t.Fatal(err)
	}
	// Mutate both columns.
	rng := xrand.New(11)
	for i := 0; i < 500; i++ {
		cn := []string{"x", "y"}[rng.Intn(2)]
		if err := tbl.Update(cn, rng.Intn(tbl.Rows()), rng.Uint64n(10_001)); err != nil {
			t.Fatal(err)
		}
	}
	// Select auto-flushes via the per-column engines.
	res, err := tbl.Select(preds)
	if err != nil {
		t.Fatal(err)
	}
	want := mirror(t, tbl).selectRows(preds)
	if res.Rows.Len() != len(want) {
		t.Fatalf("post-update select = %d rows, want %d", res.Rows.Len(), len(want))
	}
}

func TestCloseReleasesEverything(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1 << 30)
	tbl, err := New(k, as, "t", 16, []string{"a", "b", "c"}, syncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Select([]Predicate{{Column: "a", Lo: 0, Hi: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if k.FramesInUse() != 0 {
		t.Fatalf("FramesInUse = %d after Close", k.FramesInUse())
	}
	if as.VMACount() != 0 {
		t.Fatalf("VMACount = %d after Close", as.VMACount())
	}
}
