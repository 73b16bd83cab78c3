package asv

import (
	"testing"
)

// TestQueryOptFacade exercises the options-based entry point: option
// combinations, the unified answer shape, and a plain answer on the same
// column.
func TestQueryOptFacade(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err := db.CreateColumn("qo", 64, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Fill(Sine(3, 0, 1_000_000, 8)); err != nil {
		t.Fatal(err)
	}

	lo, hi := uint64(100_000), uint64(250_000)
	ans, err := col.QueryOpt(lo, hi, Rows(), Aggregate())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Rows == nil || ans.Agg == nil {
		t.Fatalf("requested materializations missing: %+v", ans)
	}
	if ans.Rows.Len() != ans.Count || ans.Agg.Count != ans.Count {
		t.Fatalf("materializations disagree with the answer: rows %d, agg %d, count %d",
			ans.Rows.Len(), ans.Agg.Count, ans.Count)
	}
	if ans.Agg.Min < lo || ans.Agg.Max > hi {
		t.Fatalf("aggregate out of range: min %d max %d", ans.Agg.Min, ans.Agg.Max)
	}

	// No options: the same answer with nil materializations.
	plain, err := col.QueryOpt(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Rows != nil || plain.Agg != nil {
		t.Fatal("unrequested materializations present")
	}
	if plain.Count != ans.Count || plain.Sum != ans.Sum {
		t.Fatalf("plain %d/%d != with options %d/%d", plain.Count, plain.Sum, ans.Count, ans.Sum)
	}
}

// TestSnapshotFacade pins the snapshot handle semantics through the
// public API: repeatable reads across a writer flush, pure reads (no
// adaptation), and idempotent Close.
func TestSnapshotFacade(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err := db.CreateColumn("snap", 64, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Fill(Uniform(7, 0, 1_000_000)); err != nil {
		t.Fatal(err)
	}

	lo, hi := uint64(0), uint64(200_000)
	snap, err := col.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	first, err := snap.QueryOpt(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if first.CandidateBuilt {
		t.Fatal("snapshot read built a candidate view")
	}

	// Overwrite matching rows and flush; the pinned handle must not move.
	moved := 0
	for row := 0; row < col.Rows() && moved < 500; row++ {
		v, err := col.Value(row)
		if err != nil {
			t.Fatal(err)
		}
		if v >= lo && v <= hi {
			if err := col.Update(row, hi+1); err != nil {
				t.Fatal(err)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("setup: no rows to move")
	}
	if _, err := col.FlushUpdates(); err != nil {
		t.Fatal(err)
	}

	again, err := snap.QueryOpt(lo, hi, Aggregate())
	if err != nil {
		t.Fatal(err)
	}
	if again.Count != first.Count || again.Sum != first.Sum {
		t.Fatalf("pinned read moved: %d/%d then %d/%d", first.Count, first.Sum, again.Count, again.Sum)
	}
	live, err := col.QueryOpt(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if live.Count != first.Count-moved {
		t.Fatalf("live query count %d, want %d", live.Count, first.Count-moved)
	}

	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.QueryOpt(lo, hi); err == nil {
		t.Fatal("query on closed snapshot succeeded")
	}
}

// TestColumnCloseDeregisters is the regression test for the catalog
// bugfix: Column.Close must deregister the column (so the name is
// reusable, like Table.Close) and be idempotent, and DB.Close must not
// double-close a column that was closed directly.
func TestColumnCloseDeregisters(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	col, err := db.CreateColumn("c", 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Column("c"); ok {
		t.Fatal("closed column still registered")
	}
	// Double-close is a no-op.
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	// The name is reusable.
	col2, err := db.CreateColumn("c", 8, DefaultConfig())
	if err != nil {
		t.Fatalf("name not reusable after close: %v", err)
	}
	if err := col2.Fill(Uniform(1, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := col2.QueryOpt(0, 500); err != nil {
		t.Fatal(err)
	}
	// DB.Close after a direct close of col2 must not double-close.
	if err := col2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
