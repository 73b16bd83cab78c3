package asv_test

import (
	"testing"

	asv "github.com/asv-db/asv"
)

func TestOpenCreateQueryClose(t *testing.T) {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	col, err := db.CreateColumn("c", 256, asv.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if col.NumPages() != 256 || col.Rows() != 256*asv.ValuesPerPage {
		t.Fatalf("NumPages=%d Rows=%d", col.NumPages(), col.Rows())
	}
	if err := col.Fill(asv.Sine(1, 0, 100_000_000, 20)); err != nil {
		t.Fatal(err)
	}

	var first, last asv.QueryAnswer
	for i := 0; i < 25; i++ {
		lo := uint64(i) * 1_000_000
		res, err := col.QueryOpt(lo, lo+2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		}
		last = res
	}
	if first.PagesScanned == 0 {
		t.Fatal("first query scanned nothing")
	}
	if len(col.Views()) == 0 {
		t.Fatal("no views were created adaptively")
	}
	_ = last
}

func TestDuplicateColumnRejected(t *testing.T) {
	db, _ := asv.Open(asv.Options{})
	defer db.Close()
	if _, err := db.CreateColumn("x", 16, asv.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateColumn("x", 16, asv.DefaultConfig()); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, ok := db.Column("x"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := db.Column("y"); ok {
		t.Fatal("phantom column")
	}
}

func TestUpdateFlow(t *testing.T) {
	db, _ := asv.Open(asv.Options{})
	defer db.Close()
	col, err := db.CreateColumn("u", 128, asv.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Fill(asv.Uniform(3, 1000, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := col.CreateViewOpt(0, 500, asv.Pinned()); err != nil {
		t.Fatal(err)
	}
	if err := col.Update(10, 42); err != nil {
		t.Fatal(err)
	}
	rep, err := col.FlushUpdates()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatchSize != 1 {
		t.Fatalf("report: %+v", rep)
	}
	v, err := col.Value(10)
	if err != nil || v != 42 {
		t.Fatalf("Value = %d, %v", v, err)
	}
	// The updated value must now be findable via the view layer.
	res, err := col.QueryOpt(42, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count < 1 {
		t.Fatal("updated value not found")
	}
}

func TestBaselineConfigNeverCreatesViews(t *testing.T) {
	db, _ := asv.Open(asv.Options{})
	defer db.Close()
	col, _ := db.CreateColumn("b", 64, asv.BaselineConfig())
	_ = col.Fill(asv.Uniform(1, 0, 1000))
	for i := 0; i < 5; i++ {
		if _, err := col.QueryOpt(0, 500); err != nil {
			t.Fatal(err)
		}
	}
	if len(col.Views()) != 0 {
		t.Fatal("baseline created views")
	}
}

func TestMemoryAccounting(t *testing.T) {
	db, _ := asv.Open(asv.Options{})
	defer db.Close()
	if db.MemoryInUse() != 0 {
		t.Fatal("fresh DB uses memory")
	}
	_, err := db.CreateColumn("m", 64, asv.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := db.MemoryInUse(); got != 64*asv.PageSize {
		t.Fatalf("MemoryInUse = %d, want %d", got, 64*asv.PageSize)
	}
}

func TestCloseReleasesEverything(t *testing.T) {
	db, _ := asv.Open(asv.Options{})
	col, _ := db.CreateColumn("c", 64, asv.DefaultConfig())
	_ = col.Fill(asv.Uniform(9, 0, 1_000_000))
	for i := 0; i < 10; i++ {
		if _, err := col.QueryOpt(uint64(i*10_000), uint64(i*10_000+5_000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db.MemoryInUse() != 0 {
		t.Fatalf("MemoryInUse = %d after Close", db.MemoryInUse())
	}
}

func TestRebuildViewsPublic(t *testing.T) {
	db, _ := asv.Open(asv.Options{})
	defer db.Close()
	col, _ := db.CreateColumn("r", 64, asv.DefaultConfig())
	_ = col.Fill(asv.Linear(5, 0, 1_000_000, 64))
	if err := col.CreateViewOpt(0, 100_000, asv.Pinned()); err != nil {
		t.Fatal(err)
	}
	if err := col.RebuildViews(); err != nil {
		t.Fatal(err)
	}
	if len(col.Views()) != 1 {
		t.Fatalf("views after rebuild: %v", col.Views())
	}
}
