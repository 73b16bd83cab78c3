package asv

import (
	"errors"
	"testing"
	"time"

	"github.com/asv-db/asv/internal/autopilot"
	"github.com/asv-db/asv/internal/vmsim"
)

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
		cols[i], err = db.CreateColumn(name, 8, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("injected close failure")
	hooked := 0
	for _, c := range cols {
		c.closeHook = func() error { hooked++; return boom }
	}

	if err := db.Close(); !errors.Is(err, boom) {
		t.Fatalf("DB.Close = %v, want the injected error", err)
	}
	if hooked != len(cols) {
		t.Fatalf("only %d of %d columns were closed past the first failure", hooked, len(cols))
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
// layer down: Column.Close surfaces the first error but still releases
// the storage column and deregisters the name, so the name is reusable.
func TestColumnCloseContinuesPastEngineError(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err := db.CreateColumn("x", 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected close failure")
	col.closeHook = func() error { return boom }
	if err := col.Close(); !errors.Is(err, boom) {
		t.Fatalf("Column.Close = %v, want the injected error", err)
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
	const pages, domain = 64, 1_000_000
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	clock := autopilot.NewManualClock(time.Unix(1000, 0))
	flushed := make(chan FlushInfo, 1)
	cfg := WithAutopilot(DefaultConfig(), AutopilotConfig{
		Clock:            clock,
		MaxFlushLatency:  5 * time.Millisecond,
		MaintainInterval: -1,
		OnFlush:          func(fi FlushInfo) { flushed <- fi },
	})
	col, err := db.CreateColumn("x", pages, cfg)
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
	if err := col.Close(); !errors.Is(err, vmsim.ErrNoMemory) {
		t.Fatalf("Column.Close = %v, want the unsynced flush error", err)
	}
}
