package view

import (
	"testing"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/vmsim"
)

// Failure injection: the paths a production system hits when the kernel
// runs out of resources mid-operation must fail cleanly — error reported,
// reservation released, no leaked VMAs or frames.

func TestCreateFailsCleanlyOnMapCountExhaustion(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1 << 30)
	col, err := storage.NewColumn(k, as, "col", 256)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform data over a huge domain: a view over a narrow slice maps
	// scattered single pages, each becoming its own VMA.
	if err := col.Fill(dist.NewUniform(3, 0, 1<<40)); err != nil {
		t.Fatal(err)
	}
	// Choke the map count: enough for the reservation, not for the pages.
	as.SetMaxMapCount(as.VMACount() + 4)

	before := as.VMACount()
	v, err := Create(col, 0, 1<<33, CreateOptions{}, nil)
	if err == nil {
		t.Fatalf("Create succeeded with %d pages despite map-count choke", v.NumPages())
	}
	// The failed builder must have released its reservation; partially
	// mapped pages may bump the count transiently but must be gone.
	if got := as.VMACount(); got != before {
		t.Fatalf("VMACount = %d after failed create, want %d", got, before)
	}
}

func TestConcurrentCreateFailsCleanly(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1 << 30)
	col, err := storage.NewColumn(k, as, "col", 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Fill(dist.NewUniform(3, 0, 1<<40)); err != nil {
		t.Fatal(err)
	}
	as.SetMaxMapCount(as.VMACount() + 4)

	m := NewMapper()
	defer m.Stop()
	before := as.VMACount()
	if _, err := Create(col, 0, 1<<33, CreateOptions{Concurrent: true}, m); err == nil {
		t.Fatal("concurrent Create succeeded despite map-count choke")
	}
	if got := as.VMACount(); got != before {
		t.Fatalf("VMACount = %d after failed concurrent create, want %d", got, before)
	}
	// The mapper must still be usable for the next view.
	as.SetMaxMapCount(1 << 30)
	v, err := Create(col, 0, 1<<33, CreateOptions{Concurrent: true}, m)
	if err != nil {
		t.Fatalf("mapper unusable after earlier failure: %v", err)
	}
	if v.NumPages() == 0 {
		t.Fatal("recovered create produced empty view")
	}
}

func TestBuilderEnqueueAfterMapperStop(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1 << 30)
	col, err := storage.NewColumn(k, as, "col", 16)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMapper()
	b, err := NewBuilder(col, CreateOptions{Concurrent: true}, m)
	if err != nil {
		t.Fatal(err)
	}
	m.Stop() // mapping thread gone before any request
	b.AddPage(3)
	if _, err := b.Finish(0, 10); err == nil {
		t.Fatal("Finish succeeded although the mapper was stopped")
	}
}

func TestMapperStopIdempotent(t *testing.T) {
	m := NewMapper()
	m.Stop()
	m.Stop() // must not panic or deadlock
}

func TestBuilderDoubleFinish(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	col, err := storage.NewColumn(k, as, "col", 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(col, CreateOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.AddPage(1)
	if _, err := b.Finish(0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(0, 10); err == nil {
		t.Fatal("double Finish succeeded")
	}
	// Abort after successful Finish is a no-op, not a release.
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestAddPageAfterFinishPanics(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	col, err := storage.NewColumn(k, as, "col", 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(col, CreateOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(0, 10); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddPage after Finish did not panic")
		}
	}()
	b.AddPage(0)
}

func TestCreateFailsCleanlyOnFrameExhaustion(t *testing.T) {
	// A kernel so small the column itself barely fits: anonymous touches
	// during creation cannot allocate (views don't touch anon pages, so
	// creation itself succeeds — but the column fill must have consumed
	// everything, proving views really are frame-free).
	k := vmsim.NewKernel(64)
	as := k.NewAddressSpace()
	col, err := storage.NewColumn(k, as, "col", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Fill(dist.NewUniform(1, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	if k.FramesInUse() != 64 {
		t.Fatalf("FramesInUse = %d", k.FramesInUse())
	}
	// Creating a view must not need a single new frame.
	v, err := Create(col, 0, 500, CreateOptions{Consecutive: true}, nil)
	if err != nil {
		t.Fatalf("view creation allocated frames: %v", err)
	}
	if v.NumPages() == 0 {
		t.Fatal("empty view")
	}
	// But touching an unmapped anonymous page now fails with ENOMEM.
	addr, err := as.MmapAnon(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.PageData(vmsim.VPN(addr >> vmsim.PageShift)); err == nil {
		t.Fatal("demand-zero fault succeeded with exhausted kernel")
	}
}

func TestEnsureMappedFailureLeavesViewLazy(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1 << 30)
	col, err := storage.NewColumn(k, as, "col", 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Fill(dist.NewUniform(3, 0, 1<<40)); err != nil {
		t.Fatal(err)
	}
	v, err := Create(col, 0, 1<<30, CreateOptions{Lazy: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	want, err := v.PageIDs()
	if err != nil {
		t.Fatal(err)
	}
	// Scattered backing pages map as one run each: choke the map count
	// so the conversion fails part way.
	as.SetMaxMapCount(as.VMACount() + 4)
	if err := v.EnsureMapped(); err == nil {
		t.Fatalf("EnsureMapped of %d scattered pages succeeded despite map-count choke", v.NumPages())
	}
	if !v.Lazy() {
		t.Fatal("failed EnsureMapped converted the view")
	}
	as.SetMaxMapCount(1 << 30)
	if err := v.EnsureMapped(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if v.Lazy() {
		t.Fatal("retried EnsureMapped left the view lazy")
	}
	got, err := v.PageIDs()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: page %d after retry, want %d", i, got[i], want[i])
		}
	}
}
