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
	pages, err := s.full.CapturePages()
	if err != nil {
		f.t.Fatal(err)
	}
	return pages
}

// mkLazyView builds a lazy partial view.
func (f *fixture) mkLazyView(lo, hi uint64) *view.View {
	return f.build(view.Spec{Lo: lo, Hi: hi, Opts: view.CreateOptions{Lazy: true}})
}

// TestSnapshotCaptureFailureRollsBack pins the rollback symmetry of the
// capture path: a CapturePages failure at view k of n must release every
// view retain the half-built capture took, leave every view's reference
// count where it was, and let a retry succeed.
func TestSnapshotCaptureFailureRollsBack(t *testing.T) {
	f := newFixture(t)
	const n, k = 131, 100
	s := f.newSet(n, 0, 0)
	views := make([]*view.View, n)
	for i := range views {
		lo := uint64(i * 1000)
		views[i] = f.mkView(lo, lo+500)
		if err := s.Insert(views[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A live predecessor, so the counts under test are not all 1.
	snap1, err := s.Snapshot(f.capFull(s))
	if err != nil {
		t.Fatal(err)
	}

	refsBefore := make([]int, n)
	for i, v := range views {
		refsBefore[i] = v.Refs()
	}

	// The first k views are captured (and retained) when the error hits.
	victim := views[k]
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

	snap2, err := s.Snapshot(f.capFull(s))
	if err != nil {
		t.Fatalf("retry after failed capture: %v", err)
	}
	if snap2.Len() != n {
		t.Fatalf("retry captured %d views, want %d", snap2.Len(), n)
	}
	if err := snap1.ReleaseViews(); err != nil {
		t.Fatal(err)
	}
	if err := snap2.ReleaseViews(); err != nil {
		t.Fatal(err)
	}
	for i, v := range views {
		if got := v.Refs(); got != 1 {
			t.Fatalf("view %d refs = %d after releasing every capture, want 1", i, got)
		}
	}
}

// TestSnapshotRefsConserved: every capture takes exactly one retain per
// partial view and its release drops exactly those. After P publications
// over a set whose membership changes between them (eager and lazy views
// inserted, removed, replaced), with captures overlapping and released
// out of order, every view's count is back to its owner reference.
func TestSnapshotRefsConserved(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(64, 0, 0)
	var all []*view.View
	mk := func(i int) *view.View {
		lo := uint64(i%50) * 20_000
		var v *view.View
		if i%3 == 0 {
			v = f.mkLazyView(lo, lo+15_000)
		} else {
			v = f.mkView(lo, lo+15_000)
		}
		all = append(all, v)
		return v
	}
	var snaps []*Snapshot
	const P = 40
	for p := 0; p < P; p++ {
		switch {
		case p%7 == 3 && s.Len() > 0:
			s.Remove(s.Partials()[0])
		case p%5 == 4 && s.Len() > 0:
			s.ReplaceExisting(s.Partials()[s.Len()-1], mk(p))
		default:
			if err := s.Insert(mk(p)); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := s.Snapshot(f.capFull(s))
		if err != nil {
			t.Fatal(err)
		}
		if snap.Len() != s.Len() {
			t.Fatalf("publication %d captured %d views, set holds %d", p, snap.Len(), s.Len())
		}
		snaps = append(snaps, snap)
		// Keep up to three captures alive; retire the oldest or, every
		// other time, the middle one.
		if len(snaps) > 3 {
			i := 0
			if p%2 == 1 {
				i = 1
			}
			if err := snaps[i].ReleaseViews(); err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps[:i], snaps[i+1:]...)
		}
	}
	for _, snap := range snaps {
		if err := snap.ReleaseViews(); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range all {
		if got := v.Refs(); got != 1 {
			t.Fatalf("view %d (%s) refs = %d after %d publications and all releases, want 1", i, v, got, P)
		}
	}
}

// BenchmarkPublish measures one publication the way the engine runs it
// after a single-row flush: capture the whole set, then retire the
// predecessor. A capture does not depend on which view changed, so no
// touch is marked. Sizes run from below the default 100-view cap to
// 4 096 views.
func BenchmarkPublish(b *testing.B) {
	for _, n := range []int{10, 100, 1024, 4096} {
		for _, lazy := range []bool{false, true} {
			kind := "eager"
			if lazy {
				kind = "lazy"
			}
			b.Run(fmt.Sprintf("views=%d/%s", n, kind), func(b *testing.B) {
				f := newFixture(b)
				s := f.newSet(n, 0, 0)
				width := uint64(1_000_000 / n)
				for i := 0; i < n; i++ {
					lo := uint64(i) * width
					var v *view.View
					if lazy {
						v = f.mkLazyView(lo, lo+width-1)
					} else {
						v = f.mkView(lo, lo+width-1)
					}
					if err := s.Insert(v); err != nil {
						b.Fatal(err)
					}
				}
				full := f.capFull(s)
				prev, err := s.Snapshot(full)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					snap, err := s.Snapshot(full)
					if err != nil {
						b.Fatal(err)
					}
					if err := prev.ReleaseViews(); err != nil {
						b.Fatal(err)
					}
					prev = snap
				}
				b.StopTimer()
				if err := prev.ReleaseViews(); err != nil {
					b.Fatal(err)
				}
			})
		}
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
	sv := snap.partials[0]
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
	if lazy.LazyFilePages() == nil {
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
