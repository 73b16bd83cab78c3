package asv

import (
	"strings"
	"testing"

	"github.com/asv-db/asv/internal/xrand"
)

func tableSyncConfig() Config {
	cfg := DefaultConfig()
	cfg.Create = CreateOptions{Consecutive: true, Lazy: true}
	return cfg
}

func newTestTable(t *testing.T, pages int, cols []string) *Table {
	t.Helper()
	db, err := Open(Options{MaxMappings: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	tbl, err := db.CreateTable("orders", pages, cols, tableSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// tableColumn returns a column the test knows the table has.
func tableColumn(t *testing.T, tbl *Table, name string) *Column {
	t.Helper()
	c, ok := tbl.Column(name)
	if !ok {
		t.Fatalf("table %q has no column %q", tbl.Name(), name)
	}
	return c
}

func fillTableColumn(t *testing.T, tbl *Table, col string, g Generator) {
	t.Helper()
	if err := tableColumn(t, tbl, col).Fill(g); err != nil {
		t.Fatal(err)
	}
}

// catalogHasTable reports whether any column named "<table>.*" is still
// registered.
func catalogHasTable(db *DB, table string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	for name := range db.columns {
		if strings.HasPrefix(name, table+".") {
			return true
		}
	}
	return false
}

func TestTableNewValidation(t *testing.T) {
	// 20 frames hold two 8-page columns but not a third.
	db, err := Open(Options{MaxMemoryPages: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateColumn("t.c", 1, tableSyncConfig()); err != nil {
		t.Fatal(err)
	}
	before := db.MemoryInUse()
	bad := tableSyncConfig()
	bad.MaxViews = -1
	for _, tc := range []struct {
		name string
		cols []string
		cfg  Config
	}{
		{"empty column list", nil, tableSyncConfig()},
		{"duplicate column", []string{"a", "a"}, tableSyncConfig()},
		{"column already in the catalog", []string{"a", "c"}, tableSyncConfig()},
		{"engine construction fails", []string{"a", "b"}, bad},
		{"storage runs out part-way", []string{"a", "b", "d"}, tableSyncConfig()},
	} {
		if _, err := db.CreateTable("t", 8, tc.cols, tc.cfg); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if _, ok := db.Table("t"); ok {
			t.Fatalf("%s: table registered", tc.name)
		}
		for _, cn := range []string{"a", "b", "d"} {
			if _, ok := db.Column("t." + cn); ok {
				t.Fatalf("%s: column t.%s left in the catalog", tc.name, cn)
			}
		}
		if got := db.MemoryInUse(); got != before {
			t.Fatalf("%s: MemoryInUse = %d, want %d", tc.name, got, before)
		}
	}
	// The pre-existing "t.c" is untouched; without it the same table fits.
	if c, ok := db.Column("t.c"); !ok {
		t.Fatal("t.c lost")
	} else if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if catalogHasTable(db, "t") {
		t.Fatal("a t.* column is still registered")
	}
	if _, err := db.CreateTable("t", 8, []string{"a", "b"}, tableSyncConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestTableAccessors(t *testing.T) {
	tbl := newTestTable(t, 16, []string{"a", "b"})
	if tbl.Name() != "orders" || tableColumn(t, tbl, "a").NumPages() != 16 {
		t.Fatalf("Name=%q NumPages=%d", tbl.Name(), tableColumn(t, tbl, "a").NumPages())
	}
	if tbl.Rows() != 16*ValuesPerPage {
		t.Fatalf("Rows = %d", tbl.Rows())
	}
	cols := tbl.Columns()
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("Columns = %v", cols)
	}
	if _, ok := tbl.Column("zzz"); ok {
		t.Fatal("phantom column accepted")
	}
}

// refTable mirrors column contents for ground-truth conjunctions.
type refTable struct {
	cols map[string][]uint64
}

func mirror(t *testing.T, tbl *Table) *refTable {
	t.Helper()
	ref := &refTable{cols: map[string][]uint64{}}
	for _, cn := range tbl.Columns() {
		col := tableColumn(t, tbl, cn)
		vals := make([]uint64, tbl.Rows())
		for r := range vals {
			v, err := col.Value(r)
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

func TestTableSelectConjunction(t *testing.T) {
	tbl := newTestTable(t, 48, []string{"price", "qty"})
	fillTableColumn(t, tbl, "price", Uniform(1, 0, 10_000))
	fillTableColumn(t, tbl, "qty", Sine(2, 0, 1_000, 6))
	ref := mirror(t, tbl)

	preds := []Predicate{
		{Column: "price", Lo: 1000, Hi: 4000},
		{Column: "qty", Lo: 0, Hi: 100}, // hits the sine trough band
	}
	res, err := tbl.Select(preds...)
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
	// A repeated Select counts the same rows.
	again, err := tbl.Select(preds...)
	if err != nil {
		t.Fatal(err)
	}
	if n := again.Rows.Len(); n != len(want) {
		t.Fatalf("repeated Select = %d rows, want %d", n, len(want))
	}
}

func TestTableSelectAdaptsPerColumn(t *testing.T) {
	tbl := newTestTable(t, 64, []string{"a", "b"})
	fillTableColumn(t, tbl, "a", Sine(3, 0, 1_000_000, 8))
	fillTableColumn(t, tbl, "b", Linear(4, 0, 1_000_000, 64))

	preds := []Predicate{
		{Column: "a", Lo: 100_000, Hi: 200_000},
		{Column: "b", Lo: 500_000, Hi: 700_000},
	}
	first, err := tbl.Select(preds...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tbl.Select(preds...)
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
		if len(tableColumn(t, tbl, cn).Views()) == 0 {
			t.Fatalf("column %s built no views", cn)
		}
	}
}

func TestTableSelectEmptyIntersectionEarlyExit(t *testing.T) {
	tbl := newTestTable(t, 32, []string{"a", "b"})
	fillTableColumn(t, tbl, "a", Uniform(5, 0, 1000))
	fillTableColumn(t, tbl, "b", Uniform(6, 5000, 9000))

	res, err := tbl.Select(
		Predicate{Column: "b", Lo: 0, Hi: 100}, // matches nothing
		Predicate{Column: "a", Lo: 0, Hi: 1000},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 0 {
		t.Fatalf("rows = %d, want 0", res.Rows.Len())
	}
}

func TestTableSelectValidation(t *testing.T) {
	tbl := newTestTable(t, 16, []string{"a"})
	if _, err := tbl.Select(); err == nil {
		t.Fatal("empty predicates accepted")
	}
	if _, err := tbl.Select(Predicate{Column: "nope", Lo: 0, Hi: 1}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if Predicate.String(Predicate{Column: "a", Lo: 1, Hi: 2}) == "" {
		t.Fatal("empty predicate string")
	}
}

func TestTableGetAndUpdate(t *testing.T) {
	tbl := newTestTable(t, 16, []string{"a", "b"})
	fillTableColumn(t, tbl, "a", Uniform(7, 0, 100))
	fillTableColumn(t, tbl, "b", Uniform(8, 0, 100))
	a, b := tableColumn(t, tbl, "a"), tableColumn(t, tbl, "b")

	if err := a.Update(10, 42); err != nil {
		t.Fatal(err)
	}
	if err := b.Update(10, 77); err != nil {
		t.Fatal(err)
	}
	if err := tbl.FlushUpdates(); err != nil {
		t.Fatal(err)
	}
	if a.eng.PendingUpdates() != 0 || b.eng.PendingUpdates() != 0 {
		t.Fatal("FlushUpdates left pending writes")
	}
	va, errA := a.Value(10)
	vb, errB := b.Value(10)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if va != 42 || vb != 77 {
		t.Fatalf("Value = %d, %d", va, vb)
	}
	if _, ok := tbl.Column("zzz"); ok {
		t.Fatal("phantom column accepted")
	}
}

func TestTableSelectAfterUpdatesMatchesGroundTruth(t *testing.T) {
	tbl := newTestTable(t, 32, []string{"x", "y"})
	fillTableColumn(t, tbl, "x", Uniform(9, 0, 10_000))
	fillTableColumn(t, tbl, "y", Uniform(10, 0, 10_000))

	preds := []Predicate{
		{Column: "x", Lo: 1000, Hi: 3000},
		{Column: "y", Lo: 2000, Hi: 6000},
	}
	// Warm the views.
	if _, err := tbl.Select(preds...); err != nil {
		t.Fatal(err)
	}
	// Mutate both columns.
	rng := xrand.New(11)
	for i := 0; i < 500; i++ {
		cn := []string{"x", "y"}[rng.Intn(2)]
		if err := tableColumn(t, tbl, cn).Update(rng.Intn(tbl.Rows()), rng.Uint64n(10_001)); err != nil {
			t.Fatal(err)
		}
	}
	// Select auto-flushes via the per-column engines.
	res, err := tbl.Select(preds...)
	if err != nil {
		t.Fatal(err)
	}
	want := mirror(t, tbl).selectRows(preds)
	if res.Rows.Len() != len(want) {
		t.Fatalf("post-update select = %d rows, want %d", res.Rows.Len(), len(want))
	}
}

func TestTableCloseReleasesEverything(t *testing.T) {
	db, err := Open(Options{MaxMappings: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", 16, []string{"a", "b", "c"}, tableSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Select(Predicate{Column: "a", Lo: 0, Hi: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if n := db.kernel.FramesInUse(); n != 0 {
		t.Fatalf("FramesInUse = %d after Close", n)
	}
	if n := db.space.VMACount(); n != 0 {
		t.Fatalf("VMACount = %d after Close", n)
	}
	if catalogHasTable(db, "t") {
		t.Fatal("a t.* column is still registered after Close")
	}
	// A stale handle's second Close leaves a new table of the same name
	// registered.
	again, err := db.CreateTable("t", 16, []string{"a"}, tableSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got, ok := db.Table("t"); !ok || got != again {
		t.Fatal("second Close of the old handle dropped the new table")
	}
	if _, ok := again.Column("a"); !ok {
		t.Fatal("new table lost its column")
	}
}
