package asv

import (
	"errors"
	"testing"
	"time"

	"github.com/asv-db/asv/internal/autopilot"
	"github.com/asv-db/asv/internal/vmsim"
)

// failingColumn creates a column whose Close fails for real: an
// autopilot on a manual clock, an eager pinned view, and one update whose
// alignment needs one more VMA than the map-count limit allows. The
// deadline flush fails with vmsim.ErrNoMemory and no Sync consumes the
// error, so Close must report it. The limit is lifted again before the
// helper returns; the address space is the DB's, shared by its columns.
func failingColumn(t *testing.T, db *DB, name string) *Column {
	t.Helper()
	const pages, domain = 64, 1_000_000
	clock := autopilot.NewManualClock(time.Unix(1000, 0))
	flushed := make(chan FlushInfo, 1)
	cfg := WithAutopilot(DefaultConfig(), AutopilotConfig{
		Clock:            clock,
		MaxFlushLatency:  5 * time.Millisecond,
		MaintainInterval: -1,
		OnFlush:          func(fi FlushInfo) { flushed <- fi },
	})
	col, err := db.CreateColumn(name, pages, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The linear fill puts the view's values on the first pages only.
	if err := col.Fill(Linear(3, 0, domain, pages)); err != nil {
		t.Fatal(err)
	}
	if err := col.CreateViewOpt(0, domain/8, Eager(), Pinned()); err != nil {
		t.Fatal(err)
	}
	// Aligning a write of the view's range to the last page must map that
	// page into the view: one more VMA than the limit allows.
	as := col.col.Space()
	as.SetMaxMapCount(as.VMACount())
	if err := col.Update((pages-1)*ValuesPerPage, 1); err != nil {
		t.Fatal(err)
	}
	clock.BlockUntilTimers(1)
	clock.Advance(5 * time.Millisecond)
	if fi := <-flushed; !errors.Is(fi.Err, vmsim.ErrNoMemory) {
		t.Fatalf("premise: flush error %v, want the map-count limit", fi.Err)
	}
	as.SetMaxMapCount(1 << 30)
	return col
}

// TestDBCloseAllColumnsOnError pins the DB.Close error contract: the
// first column close error is returned, but every remaining column is
// still closed and deregistered — a failing column must never leak its
// siblings' views, frames or catalog names.
func TestDBCloseAllColumnsOnError(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c"}
	cols := make([]*Column, len(names))
	for i, name := range names {
		cols[i] = failingColumn(t, db, name)
	}

	if err := db.Close(); !errors.Is(err, vmsim.ErrNoMemory) {
		t.Fatalf("DB.Close = %v, want the unsynced flush error", err)
	}
	for i, c := range cols {
		if !c.closed.Load() {
			t.Fatalf("column %q not marked closed after erroring DB.Close", names[i])
		}
	}
	db.mu.Lock()
	left := len(db.columns)
	db.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d columns still registered after DB.Close", left)
	}
	if got := db.MemoryInUse(); got != 0 {
		t.Fatalf("%d bytes of simulated memory still in use after DB.Close", got)
	}
}

// TestColumnCloseContinuesPastEngineError pins the same contract one
// layer down: Column.Close surfaces the engine's error but still releases
// the storage column and deregisters the name, so the name is reusable.
func TestColumnCloseContinuesPastEngineError(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col := failingColumn(t, db, "x")
	if err := col.Close(); !errors.Is(err, vmsim.ErrNoMemory) {
		t.Fatalf("Column.Close = %v, want the unsynced flush error", err)
	}
	if _, ok := db.Column("x"); ok {
		t.Fatal("column still registered after erroring Close")
	}
	if _, err := db.CreateColumn("x", 8, DefaultConfig()); err != nil {
		t.Fatalf("name not reusable after erroring Close: %v", err)
	}
}

// TestColumnCloseReportsUnsyncedFlushError: an autopilot deadline flush
// fails and no Sync consumes its error, so Close must return it.
func TestColumnCloseReportsUnsyncedFlushError(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col := failingColumn(t, db, "x")
	if err := col.Close(); !errors.Is(err, vmsim.ErrNoMemory) {
		t.Fatalf("Column.Close = %v, want the unsynced flush error", err)
	}
}
