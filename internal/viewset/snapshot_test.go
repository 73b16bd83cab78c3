package viewset

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/asv-db/asv/internal/view"
)

// capFull captures the full view's resolved pages — the viewset-level
// stand-in for the column capture the engine passes to Snapshot.
func (f *fixture) capFull(s *Set) [][]byte {
	pages, err := s.Full().CapturePages()
	if err != nil {
		f.t.Fatal(err)
	}
	return pages
}

// mkLazyView builds a lazy partial view.
func (f *fixture) mkLazyView(lo, hi uint64) *view.View {
	v, err := view.Create(f.col, lo, hi, view.CreateOptions{Lazy: true}, nil)
	if err != nil {
		f.t.Fatal(err)
	}
	v.SetRange(lo, hi)
	return v
}

func TestSnapshotDeltaSharesUntouchedCaptures(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(10, 0, 0)
	views := make([]*view.View, 4)
	for i := range views {
		lo := uint64(i) * 200_000
		views[i] = f.mkView(lo, lo+150_000)
		if err := s.Insert(views[i]); err != nil {
			t.Fatal(err)
		}
	}

	snap1, err := s.Snapshot(f.capFull(s))
	if err != nil {
		t.Fatal(err)
	}
	// An unchanged set shares the whole chunk: one retain, zero captures.
	snap2, err := s.Snapshot(f.capFull(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap1.chunks) != 1 || len(snap2.chunks) != 1 {
		t.Fatalf("chunks = %d/%d, want 1/1", len(snap1.chunks), len(snap2.chunks))
	}
	if snap1.chunks[0] != snap2.chunks[0] {
		t.Fatal("unchanged set did not share the capture chunk")
	}

	// A dirty view forces a chunk rebuild, but every other entry is
	// still pointer-shared with the previous capture.
	s.MarkDirty(views[2])
	snap3, err := s.Snapshot(f.capFull(s))
	if err != nil {
		t.Fatal(err)
	}
	if snap3.chunks[0] == snap1.chunks[0] {
		t.Fatal("dirty view did not invalidate its chunk")
	}
	p1, p3 := snap1.Partials(), snap3.Partials()
	for i := range p1 {
		if i == 2 {
			if p1[i] == p3[i] {
				t.Fatal("dirty view's capture was reused")
			}
			continue
		}
		if p1[i] != p3[i] {
			t.Fatalf("clean view %d was re-captured", i)
		}
	}

	// Membership change (remove) shifts positions: rebuild, share entries.
	if !s.Remove(views[0]) {
		t.Fatal("remove failed")
	}
	snap4, err := s.Snapshot(f.capFull(s))
	if err != nil {
		t.Fatal(err)
	}
	p4 := snap4.Partials()
	if len(p4) != 3 {
		t.Fatalf("len = %d, want 3", len(p4))
	}
	if p4[0] != p3[1] || p4[1] != p3[2] || p4[2] != p3[3] {
		t.Fatal("surviving views' captures were not shared across the removal")
	}

	// Full teardown: release every snapshot and the cache, then the
	// views' own references must be all that remains.
	for _, sn := range []*Snapshot{snap1, snap2, snap3, snap4} {
		if err := sn.ReleaseViews(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ResetCaptureCache(); err != nil {
		t.Fatal(err)
	}
	for i, v := range views {
		want := 1
		if i == 0 {
			// views[0] was removed from the set but never released by
			// this test; only its owner reference should remain.
			want = 1
		}
		if got := v.Refs(); got != want {
			t.Fatalf("view %d refs = %d, want %d", i, got, want)
		}
	}
}

func TestSnapshotDeltaMultiChunk(t *testing.T) {
	f := newFixture(t)
	n := snapChunkSize + 4
	s := f.newSet(n, 0, 0)
	views := make([]*view.View, n)
	for i := range views {
		lo := uint64(i * 1000)
		views[i] = f.mkView(lo, lo+500)
		if err := s.Insert(views[i]); err != nil {
			t.Fatal(err)
		}
	}
	snap1, err := s.Snapshot(f.capFull(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap1.chunks) != 2 {
		t.Fatalf("chunks = %d, want 2", len(snap1.chunks))
	}
	// Touch one view in the second chunk: the first chunk is shared
	// whole, the second is rebuilt.
	s.MarkDirty(views[snapChunkSize+1])
	snap2, err := s.Snapshot(f.capFull(s))
	if err != nil {
		t.Fatal(err)
	}
	if snap2.chunks[0] != snap1.chunks[0] {
		t.Fatal("untouched chunk was rebuilt")
	}
	if snap2.chunks[1] == snap1.chunks[1] {
		t.Fatal("touched chunk was shared")
	}
	if err := snap1.ReleaseViews(); err != nil {
		t.Fatal(err)
	}
	if err := snap2.ReleaseViews(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCaptureFailureRollsBack pins the rollback symmetry of the
// capture path: a CapturePages failure mid-set must release every
// reference the half-built capture took — including retains on chunks
// reused from the delta cache — leave the cache intact, and let a retry
// succeed.
func TestSnapshotCaptureFailureRollsBack(t *testing.T) {
	f := newFixture(t)
	n := snapChunkSize + 3
	s := f.newSet(n, 0, 0)
	views := make([]*view.View, n)
	for i := range views {
		lo := uint64(i * 1000)
		views[i] = f.mkView(lo, lo+500)
		if err := s.Insert(views[i]); err != nil {
			t.Fatal(err)
		}
	}
	snap1, err := s.Snapshot(f.capFull(s))
	if err != nil {
		t.Fatal(err)
	}

	refsBefore := make([]int, n)
	for i, v := range views {
		refsBefore[i] = v.Refs()
	}
	chunk0Refs := s.capChunks[0].refs.Load()

	// Dirty a second-chunk view and make its re-capture fail: the first
	// chunk has already been reused (retained) when the error hits.
	victim := views[snapChunkSize+1]
	s.MarkDirty(victim)
	boom := errors.New("injected capture failure")
	s.SetCaptureHook(func(v *view.View) ([][]byte, error) {
		if v == victim {
			return nil, boom
		}
		return v.CapturePages()
	})
	if _, err := s.Snapshot(f.capFull(s)); !errors.Is(err, boom) {
		t.Fatalf("Snapshot error = %v, want injected failure", err)
	}
	s.SetCaptureHook(nil)

	for i, v := range views {
		if got := v.Refs(); got != refsBefore[i] {
			t.Fatalf("view %d refs %d -> %d after failed capture", i, refsBefore[i], got)
		}
	}
	if got := s.capChunks[0].refs.Load(); got != chunk0Refs {
		t.Fatalf("reused chunk refs %d -> %d after failed capture", chunk0Refs, got)
	}

	// The cache survived the failure: a retry succeeds and still shares
	// the untouched chunk.
	snap2, err := s.Snapshot(f.capFull(s))
	if err != nil {
		t.Fatalf("retry after failed capture: %v", err)
	}
	if snap2.chunks[0] != snap1.chunks[0] {
		t.Fatal("retry did not share the untouched chunk")
	}
	if err := snap1.ReleaseViews(); err != nil {
		t.Fatal(err)
	}
	if err := snap2.ReleaseViews(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotLazyCaptureReadsEpochBytes: a lazy view is
// captured through its slot directory and resolves byte-identically to
// an eager capture of the same range — without ever materializing the
// live view.
func TestSnapshotLazyCaptureReadsEpochBytes(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(10, 0, 0)
	lazy := f.mkLazyView(100_000, 400_000)
	eager := f.mkView(100_000, 400_000)
	if err := s.Insert(lazy); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot(f.capFull(s))
	if err != nil {
		t.Fatal(err)
	}
	sv := snap.Partials()[0]
	if !sv.Lazy() {
		t.Fatal("lazy view captured eagerly")
	}
	if sv.NumPages() != eager.NumPages() {
		t.Fatalf("captured %d pages, eager view has %d", sv.NumPages(), eager.NumPages())
	}
	for i := 0; i < sv.NumPages(); i++ {
		want, err := eager.PageBytes(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sv.PageBytes(i), want) {
			t.Fatalf("page %d diverged between lazy capture and eager view", i)
		}
	}
	if lazy.Lazy() != true {
		t.Fatal("snapshot capture materialized the live view")
	}
	if err := snap.ReleaseViews(); err != nil {
		t.Fatal(err)
	}
	if err := eager.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReleaseHookSurfacesErrors: a failing view release during
// retirement is returned, and the walk still drops every reference.
func TestSnapshotReleaseHookSurfacesErrors(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(10, 0, 0)
	for i := 0; i < 3; i++ {
		lo := uint64(i) * 200_000
		if err := s.Insert(f.mkView(lo, lo+150_000)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot(f.capFull(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ResetCaptureCache(); err != nil {
		t.Fatal(err)
	}
	released := 0
	s.SetReleaseViewHook(func(v *view.View) error {
		released++
		if err := v.Release(); err != nil {
			return err
		}
		return fmt.Errorf("injected release failure %d", released)
	})
	defer s.SetReleaseViewHook(nil)
	if err := snap.ReleaseViews(); err == nil {
		t.Fatal("injected release failure was swallowed")
	}
	if released != 3 {
		t.Fatalf("released %d captures, want 3 (walk must continue past errors)", released)
	}
}
