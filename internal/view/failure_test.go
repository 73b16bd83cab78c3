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
	// Choke the map count: enough for the reservations, not for the pages.
	as.SetMaxMapCount(as.VMACount() + 4)
	before := as.VMACount()
	narrow := Spec{Lo: 0, Hi: 1 << 33}
	empty := Spec{Lo: 1 << 41, Hi: 1 << 42} // above the domain: finishes with no pages
	for _, specs := range [][]Spec{{narrow}, {empty, narrow, empty}} {
		if vs, err := Build(col, specs, nil); err == nil {
			t.Fatalf("Build of %d specs succeeded despite map-count choke (%d pages)", len(specs), vs[len(vs)-1].NumPages())
		}
		// Every reservation, finished view and partly mapped page must be
		// gone again.
		if got := as.VMACount(); got != before {
			t.Fatalf("%d specs: VMACount = %d after failed build, want %d", len(specs), got, before)
		}
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
	if _, err := build1(col, 0, 1<<33, CreateOptions{Concurrent: true}, m); err == nil {
		t.Fatal("concurrent Build succeeded despite map-count choke")
	}
	if got := as.VMACount(); got != before {
		t.Fatalf("VMACount = %d after failed concurrent create, want %d", got, before)
	}
	// The mapper must still be usable for the next view.
	as.SetMaxMapCount(1 << 30)
	v, err := build1(col, 0, 1<<33, CreateOptions{Concurrent: true}, m)
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
	b.Abort()
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
	v, err := build1(col, 0, 500, CreateOptions{Consecutive: true}, nil)
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
	v, err := build1(col, 0, 1<<30, CreateOptions{Lazy: true}, nil)
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
	if v.lazy == nil {
		t.Fatal("failed EnsureMapped converted the view")
	}
	as.SetMaxMapCount(1 << 30)
	if err := v.EnsureMapped(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if v.lazy != nil {
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

// TestReleaseNeedsNoMapHeadroom pins the premise that makes Release
// infallible: vmsim's munmap never refuses a split, so a view releases
// even when the address space sits at vm.max_map_count. Three lazy
// reservations built by one Build merge into one anonymous VMA, so
// releasing the middle one splits it and the VMA count rises past the
// limit. Linux's munmap would fail that split with ENOMEM; a Linux
// backend has to restore the error (README, "Departures from the paper").
func TestReleaseNeedsNoMapHeadroom(t *testing.T) {
	const domain = 1_000_000
	col := testColumn(t, 64, dist.NewSine(5, 0, domain, 16))
	as, k := col.Space(), col.Kernel()
	vmas, mapped, frames := as.VMACount(), col.File().MappedPages(), k.FramesInUse()
	var views []*View
	for _, opts := range []CreateOptions{{Lazy: true}, {Consecutive: true}} {
		vs, err := Build(col, []Spec{
			{Lo: 0, Hi: domain / 10, Opts: opts},
			{Lo: 4 * domain / 10, Hi: domain / 2, Opts: opts},
			{Lo: 8 * domain / 10, Hi: 9 * domain / 10, Opts: opts},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, vs...)
	}
	limit := as.VMACount()
	as.SetMaxMapCount(limit)
	// The middle lazy view first, then the others.
	peak := 0
	for _, i := range []int{1, 0, 2, 3, 4, 5} {
		views[i].Release()
		peak = max(peak, as.VMACount())
	}
	if peak <= limit {
		t.Fatalf("premise: VMA count peaked at %d, never past the limit %d", peak, limit)
	}
	if got := as.VMACount(); got != vmas {
		t.Fatalf("VMACount = %d after the releases, want %d", got, vmas)
	}
	if got := col.File().MappedPages(); got != mapped {
		t.Fatalf("MappedPages = %d after the releases, want %d", got, mapped)
	}
	if got := k.FramesInUse(); got != frames {
		t.Fatalf("FramesInUse = %d after the releases, want %d", got, frames)
	}
}
