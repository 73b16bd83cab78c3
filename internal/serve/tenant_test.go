package serve

import (
	"errors"
	"net/http"
	"testing"
	"time"

	asv "github.com/asv-db/asv"
)

// TestCatalogCloseAllTenantsOnError pins the catalog's close contract —
// the same one asv.DB.Close honors for columns: the first tenant close
// error is returned, but every tenant is still closed and removed, so a
// failing tenant never leaks its neighbors' kernels.
func TestCatalogCloseAllTenantsOnError(t *testing.T) {
	cat := NewCatalog()
	names := []string{"a", "b", "c"}
	for _, n := range names {
		if _, err := cat.Tenant(n); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("injected tenant close failure")
	var closed []string
	cat.closeTenantHook = func(tn *Tenant) error {
		closed = append(closed, tn.Name())
		if err := tn.Close(); err != nil {
			return err
		}
		return boom
	}
	if err := cat.Close(); !errors.Is(err, boom) {
		t.Fatalf("Catalog.Close = %v, want the injected error", err)
	}
	if len(closed) != len(names) {
		t.Fatalf("only %d of %d tenants closed past the first failure: %v", len(closed), len(names), closed)
	}
	// Deterministic close order keeps error attribution stable.
	for i, n := range names {
		if closed[i] != n {
			t.Fatalf("close order %v, want %v", closed, names)
		}
	}
	if got := cat.Names(); len(got) != 0 {
		t.Fatalf("tenants still registered after Close: %v", got)
	}
	if _, err := cat.Tenant("late"); err == nil {
		t.Fatal("closed catalog still creates tenants")
	}
}

// TestTenantLifecycle covers the per-tenant surface the handlers lean
// on: lazy creation, name validation, duplicate columns, snapshot
// registry scoping, and idempotent close.
func TestTenantLifecycle(t *testing.T) {
	cat := NewCatalog()
	defer func() {
		if err := cat.Close(); err != nil {
			t.Errorf("catalog close: %v", err)
		}
	}()
	if _, err := cat.Tenant("no spaces"); err == nil {
		t.Fatal("invalid tenant name accepted")
	}
	tn, err := cat.Tenant("t1")
	if err != nil {
		t.Fatal(err)
	}
	again, err := cat.Tenant("t1")
	if err != nil || again != tn {
		t.Fatalf("second reference created a new tenant (%v)", err)
	}

	col, err := tn.CreateColumn("c", 8, 2, RangeParts, asv.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.CreateColumn("c", 8, 2, RangeParts, asv.DefaultConfig()); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if err := col.Fill(asv.Uniform(1, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	snap, err := col.Snapshot() //asv:handoff registered in the tenant snapshot table and released by CloseColumn below
	if err != nil {
		t.Fatal(err)
	}
	id, err := tn.AddSnapshot("c", snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tn.SnapshotHandle("c", id); !ok {
		t.Fatal("registered snapshot not found")
	}
	if _, ok := tn.SnapshotHandle("other", id); ok {
		t.Fatal("snapshot handle leaked across column scopes")
	}
	// CloseColumn must release the snapshot first; otherwise the shard
	// Close below would block forever on the live pin.
	if err := tn.CloseColumn("c"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tn.SnapshotHandle("c", id); ok {
		t.Fatal("snapshot survived its column")
	}
	if err := tn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tn.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}
	if _, err := tn.CreateColumn("late", 1, 1, RangeParts, asv.DefaultConfig()); err == nil {
		t.Fatal("closed tenant still creates columns")
	}
}

// TestTenantSnapshotOutlivingItsColumn pins the registration race of a
// snapshot created over HTTP: the handler pins the column, CloseColumn
// removes it (sweeping its registered handles and blocking on the pin),
// and only then does the handler register the pin. AddSnapshot must
// refuse it, with the status the handler maps to 409, so the handler's
// unwind closes the pin and CloseColumn returns; a registered pin could
// never be deleted, since its column no longer resolves.
func TestTenantSnapshotOutlivingItsColumn(t *testing.T) {
	cat := NewCatalog()
	defer func() {
		if err := cat.Close(); err != nil {
			t.Errorf("catalog close: %v", err)
		}
	}()
	tn, err := cat.Tenant("t")
	if err != nil {
		t.Fatal(err)
	}
	col, err := tn.CreateColumn("c", 8, 2, RangeParts, asv.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := col.Snapshot() //asv:handoff closed below, as the handler's unwind would
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- tn.CloseColumn("c") }()
	for {
		if _, ok := tn.Column("c"); !ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	_, addErr := tn.AddSnapshot("c", snap)
	// Close the pin whatever AddSnapshot said, so CloseColumn can return.
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("CloseColumn: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CloseColumn still blocked on the pin 10 s after it was closed")
	}
	if addErr == nil {
		t.Fatal("AddSnapshot registered a pin on a column that CloseColumn had already removed")
	}
	if got := snapshotRefusal(addErr); got != http.StatusConflict {
		t.Fatalf("refused registration maps to status %d, want %d", got, http.StatusConflict)
	}
}
