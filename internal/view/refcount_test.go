package view

import (
	"testing"

	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/vmsim"
)

// TestRetainDefersRelease pins the refcounted release: the creation
// reference plus one Retain require two Releases before the area is
// unmapped, and further Releases stay no-ops.
func TestRetainDefersRelease(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1 << 20)
	col, err := storage.NewColumn(k, as, "rc", 8)
	if err != nil {
		t.Fatal(err)
	}
	v, err := build1(col, 0, ^uint64(0), CreateOptions{Consecutive: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumPages() == 0 {
		t.Fatal("setup: empty view")
	}
	mapped := col.File().MappedPages()

	v.Retain()
	v.Release()
	if got := col.File().MappedPages(); got != mapped {
		t.Fatalf("first release unmapped despite outstanding reference: %d -> %d", mapped, got)
	}
	if _, err := v.PageBytes(0); err != nil {
		t.Fatalf("retained view unreadable: %v", err)
	}
	v.Release()
	if got := col.File().MappedPages(); got != col.NumPages() {
		t.Fatalf("last release did not unmap: %d, want %d (full view only)", got, col.NumPages())
	}
	// Double-release stays idempotent.
	v.Release()
}

// TestCapturePagesDetachesFromMutation pins the capture discipline: a
// captured soft-TLB keeps resolving the slots it was taken with after
// BeginTLBMutation + RemovePageAt restructure the live view.
func TestCapturePagesDetachesFromMutation(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1 << 20)
	col, err := storage.NewColumn(k, as, "cap", 8)
	if err != nil {
		t.Fatal(err)
	}
	v, err := build1(col, 0, ^uint64(0), CreateOptions{Consecutive: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()

	pages := v.CapturePages()
	n := len(pages)
	ids := make([]uint64, n)
	for i, pg := range pages {
		ids[i] = storage.PageID(pg)
	}

	v.BeginTLBMutation()
	if _, err := v.RemovePageAt(0); err != nil {
		t.Fatal(err)
	}

	if len(pages) != n {
		t.Fatal("capture length changed")
	}
	for i, pg := range pages {
		if storage.PageID(pg) != ids[i] {
			t.Fatalf("captured slot %d moved: %d != %d", i, storage.PageID(pg), ids[i])
		}
	}
}
