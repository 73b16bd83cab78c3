package asv_test

import (
	"path/filepath"
	"testing"

	asv "github.com/asv-db/asv"
)

func TestQueryRowsAndAggregateFacade(t *testing.T) {
	db, _ := asv.Open(asv.Options{})
	defer db.Close()
	col, err := db.CreateColumn("c", 64, asv.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Fill(asv.Uniform(5, 0, 10_000)); err != nil {
		t.Fatal(err)
	}

	res, err := col.QueryOpt(1000, 2000, asv.Rows())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if rows.Len() != res.Count || rows.Len() == 0 {
		t.Fatalf("rows=%d count=%d", rows.Len(), res.Count)
	}
	// Every materialized row really is in range.
	rows.ForEach(func(r int) bool {
		v, err := col.Value(r)
		if err != nil || v < 1000 || v > 2000 {
			t.Fatalf("row %d = %d, %v", r, v, err)
		}
		return true
	})

	ans, err := col.QueryOpt(1000, 2000, asv.Aggregate())
	if err != nil {
		t.Fatal(err)
	}
	if agg := ans.Agg; agg.Count != res.Count || agg.Min < 1000 || agg.Max > 2000 {
		t.Fatalf("aggregate %+v", *agg)
	}
}

func TestSaveLoadFacade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "col.asv")

	db, _ := asv.Open(asv.Options{})
	defer db.Close()
	col, _ := db.CreateColumn("orig", 32, asv.DefaultConfig())
	_ = col.Fill(asv.Sine(9, 0, 1_000_000, 8))
	wantRes, err := col.QueryOpt(100_000, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Save(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := db.LoadColumn("copy", path, asv.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := loaded.QueryOpt(100_000, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.Count != wantRes.Count || gotRes.Sum != wantRes.Sum {
		t.Fatalf("loaded column answers (%d,%d), want (%d,%d)",
			gotRes.Count, gotRes.Sum, wantRes.Count, wantRes.Sum)
	}
	// Loaded views start empty and regrow.
	if len(loaded.Views()) == 0 {
		t.Fatal("loaded column did not adapt")
	}
	// Duplicate name rejected.
	if _, err := db.LoadColumn("copy", path, asv.DefaultConfig()); err == nil {
		t.Fatal("duplicate load accepted")
	}
	// Missing file surfaces an error.
	if _, err := db.LoadColumn("x", filepath.Join(dir, "nope"), asv.DefaultConfig()); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestTableFacade(t *testing.T) {
	db, _ := asv.Open(asv.Options{})
	defer db.Close()

	tbl, err := db.CreateTable("trips", 32, []string{"distance_m", "fare_cents"}, asv.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("trips", 32, []string{"x"}, asv.DefaultConfig()); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if got, ok := db.Table("trips"); !ok || got != tbl {
		t.Fatal("table lookup failed")
	}
	if err := tbl.FillColumn("distance_m", asv.Uniform(1, 0, 50_000)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.FillColumn("fare_cents", asv.Uniform(2, 100, 10_000)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.FillColumn("nope", asv.Uniform(1, 0, 1)); err == nil {
		t.Fatal("fill of phantom column accepted")
	}

	res, err := tbl.Select(
		asv.Predicate{Column: "distance_m", Lo: 10_000, Hi: 20_000},
		asv.Predicate{Column: "fare_cents", Lo: 1_000, Hi: 5_000},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Verify the conjunction row by row.
	res.Rows.ForEach(func(r int) bool {
		vals, err := tbl.Get(r, "distance_m", "fare_cents")
		if err != nil {
			t.Fatal(err)
		}
		if vals[0] < 10_000 || vals[0] > 20_000 || vals[1] < 1_000 || vals[1] > 5_000 {
			t.Fatalf("row %d violates predicates: %v", r, vals)
		}
		return true
	})
	n, err := tbl.Count(asv.Predicate{Column: "distance_m", Lo: 0, Hi: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if n != tbl.Rows() {
		t.Fatalf("Count over full domain = %d, want %d", n, tbl.Rows())
	}

	// Update flows through and views report per column.
	if err := tbl.Update("fare_cents", 7, 4_242); err != nil {
		t.Fatal(err)
	}
	if err := tbl.FlushUpdates(); err != nil {
		t.Fatal(err)
	}
	vals, _ := tbl.Get(7, "fare_cents")
	if vals[0] != 4_242 {
		t.Fatalf("updated fare = %d", vals[0])
	}
	if _, err := tbl.ColumnViews("fare_cents"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.ColumnViews("nope"); err == nil {
		t.Fatal("views of phantom column accepted")
	}

	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Table("trips"); ok {
		t.Fatal("table still registered after Close")
	}
}

func TestPolicyFacadeRoundTrip(t *testing.T) {
	db, _ := asv.Open(asv.Options{})
	defer db.Close()
	cfg := asv.DefaultConfig()
	cfg.Mode = asv.MultiView
	cfg.MultiViewPolicy = asv.CostBased
	cfg.Limit = asv.EvictLRU
	cfg.MaxViews = 4
	col, err := db.CreateColumn("p", 64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = col.Fill(asv.Sine(3, 0, 1_000_000, 8))
	for i := 0; i < 12; i++ {
		lo := uint64(i) * 80_000
		if _, err := col.QueryOpt(lo, lo+50_000); err != nil {
			t.Fatal(err)
		}
	}
	if len(col.Views()) > 4 {
		t.Fatalf("views %d exceed limit", len(col.Views()))
	}
	if col.Stats().ViewsEvicted == 0 {
		t.Fatal("no evictions under EvictLRU")
	}
}
