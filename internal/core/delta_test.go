package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/workload"
)

// TestDeltaPublicationEquivalence drives every generator through an
// interleaved query/update workload — each flush publishes a fresh
// capture of a mutating view set — then replays the probes: every answer
// must match a full scan of the column.
func TestDeltaPublicationEquivalence(t *testing.T) {
	const pages = 96
	probes := workload.SelectivitySweep(13, 30, ccDomain, ccDomain/2, ccDomain/100)
	for _, name := range dist.Names() {
		t.Run(name, func(t *testing.T) {
			g, err := dist.ByName(name, 5, 0, ccDomain, pages)
			if err != nil {
				t.Fatal(err)
			}
			e := newEngine(t, testColumn(t, pages, g), syncConfig())
			ups := workload.UniformUpdates(77, 240, e.Column().Rows(), 0, ccDomain)

			// Interleave: queries grow the view set, update batches flush
			// between them so successive publications capture a set whose
			// views were just realigned.
			for i, q := range probes {
				if _, err := e.QueryOpt(q.Lo, q.Hi, QueryOptions{}); err != nil {
					t.Fatal(err)
				}
				for _, u := range ups[i*8 : (i+1)*8] {
					if err := e.Update(u.Row, u.Value); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := e.FlushUpdates(); err != nil {
					t.Fatal(err)
				}
				checkZonesExact(t, e.Column())
			}
			if len(e.Views()) == 0 {
				t.Fatal("premise: the workload created no views")
			}

			for i, q := range probes {
				r, err := e.QueryOpt(q.Lo, q.Hi, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				wantCount, wantSum, err := e.Column().FullScan(q.Lo, q.Hi)
				if err != nil {
					t.Fatal(err)
				}
				if r.Count != wantCount || r.Sum != wantSum {
					t.Fatalf("probe %d [%d,%d]: published state %d/%d != full scan %d/%d",
						i, q.Lo, q.Hi, r.Count, r.Sum, wantCount, wantSum)
				}
			}
		})
	}
}

// TestLazyEagerScanEquivalence runs the same workload on a lazy-views
// engine and an eager-views engine over identically generated columns:
// every answer and, at the end, every view's resolved page bytes must be
// identical — fault-driven materialization may defer mapping work but
// never change what a scan reads.
func TestLazyEagerScanEquivalence(t *testing.T) {
	const pages = 96
	probes := workload.SelectivitySweep(17, 25, ccDomain, ccDomain/2, ccDomain/100)
	for _, name := range dist.Names() {
		t.Run(name, func(t *testing.T) {
			g, err := dist.ByName(name, 5, 0, ccDomain, pages)
			if err != nil {
				t.Fatal(err)
			}
			mk := func(lazy bool) *Engine {
				cfg := syncConfig()
				cfg.Create.Lazy = lazy
				return newEngine(t, testColumn(t, pages, g), cfg)
			}
			lazyE, eagerE := mk(true), mk(false)
			ups := workload.UniformUpdates(33, 200, lazyE.Column().Rows(), 0, ccDomain)

			for i, q := range probes {
				rl, err := lazyE.QueryOpt(q.Lo, q.Hi, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				re, err := eagerE.QueryOpt(q.Lo, q.Hi, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if rl.Count != re.Count || rl.Sum != re.Sum {
					t.Fatalf("probe %d [%d,%d]: lazy %d/%d != eager %d/%d",
						i, q.Lo, q.Hi, rl.Count, rl.Sum, re.Count, re.Sum)
				}
				for _, u := range ups[i*8 : (i+1)*8] {
					if err := lazyE.Update(u.Row, u.Value); err != nil {
						t.Fatal(err)
					}
					if err := eagerE.Update(u.Row, u.Value); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := lazyE.FlushUpdates(); err != nil {
					t.Fatal(err)
				}
				if _, err := eagerE.FlushUpdates(); err != nil {
					t.Fatal(err)
				}
			}

			lv, ev := lazyE.Views(), eagerE.Views()
			if len(lv) != len(ev) {
				t.Fatalf("view counts diverged: lazy %d, eager %d", len(lv), len(ev))
			}
			for i := range lv {
				if lv[i].NumPages() != ev[i].NumPages() {
					t.Fatalf("view %d page counts diverged: %d vs %d",
						i, lv[i].NumPages(), ev[i].NumPages())
				}
				for p := 0; p < lv[i].NumPages(); p++ {
					lp, err := lv[i].PageBytes(p)
					if err != nil {
						t.Fatal(err)
					}
					ep, err := ev[i].PageBytes(p)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(lp, ep) {
						t.Fatalf("view %d page %d bytes diverged", i, p)
					}
				}
			}
		})
	}
}

// TestReadsNeverMapLazyViews: reads resolve a lazy view's slots through
// the epoch capture, so no query maps one. Live and snapshot reads —
// single- and multi-view, plain, Rows, Aggregate and traced — leave
// DemandMaps where it was and every partial lazy; the first flush maps
// them all.
func TestReadsNeverMapLazyViews(t *testing.T) {
	const pages = 96
	probes := workload.SelectivitySweep(17, 25, ccDomain, ccDomain/2, ccDomain/100)
	for _, mode := range []Mode{SingleView, MultiView} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := syncConfig()
			cfg.Mode = mode
			e := newEngine(t, testColumn(t, pages, dist.NewSine(5, 0, ccDomain, 8)), cfg)
			as := e.Column().Space()
			base := as.Stats().DemandMaps
			opt := func(i int) QueryOptions {
				o := materializations(i)
				if i%5 == 4 {
					o.Trace = obs.NewTrace("query")
				}
				return o
			}
			for i, q := range probes {
				if _, err := e.QueryOpt(q.Lo, q.Hi, opt(i)); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range probes {
				if _, err := snap.QueryOpt(q.Lo, q.Hi, opt(i)); err != nil {
					t.Fatal(err)
				}
				if _, err := snap.QueryOptAdapt(q.Hi/2, q.Hi, opt(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			snap.Close()
			if got := as.Stats().DemandMaps; got != base {
				t.Fatalf("reads issued %d demand maps, want 0", got-base)
			}
			views := e.Views()
			if len(views) == 0 {
				t.Fatal("premise: the reads created no views")
			}
			for i, v := range views {
				if v.LazyFilePages() == nil {
					t.Fatalf("view %d (%s) was mapped by a read", i, v)
				}
			}

			if err := e.Update(0, ccDomain/3); err != nil {
				t.Fatal(err)
			}
			if _, err := e.FlushUpdates(); err != nil {
				t.Fatal(err)
			}
			if as.Stats().DemandMaps == base {
				t.Fatal("the first flush mapped no lazy view")
			}
			for i, v := range e.Views() {
				if v.LazyFilePages() != nil {
					t.Fatalf("view %d (%s) still lazy after the flush", i, v)
				}
			}
		})
	}
}

// TestEpochManyViewsStorm races view creation, view rebuilds, snapshot
// pins and publications against each other: the captures' reference
// discipline must keep every pinned reader consistent while views are
// created, rebuilt and retired underneath it. Run under -race in CI with
// fresh schedules.
func TestEpochManyViewsStorm(t *testing.T) {
	const pages = 64
	cfg := syncConfig()
	cfg.MaxViews = 8
	e := newEngine(t, testColumn(t, pages, dist.NewUniform(7, 0, ccDomain)), cfg)

	errs := make(chan error, 16)
	var wg sync.WaitGroup
	start := make(chan struct{})
	spawn := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := fn(); err != nil {
				errs <- err
			}
		}()
	}

	// Writers: single-row batches, each flush a publication.
	ups := workload.UniformUpdates(21, 300, e.Column().Rows(), 0, ccDomain)
	spawn(func() error {
		for _, u := range ups {
			if err := e.Update(u.Row, u.Value); err != nil {
				return err
			}
			if _, err := e.FlushUpdates(); err != nil {
				return err
			}
		}
		return nil
	})
	// Adaptive readers: candidate creation churns the set's membership
	// until it freezes at MaxViews.
	for r := 0; r < 2; r++ {
		probes := workload.SelectivitySweep(uint64(40+r), 200, ccDomain, ccDomain/3, ccDomain/200)
		spawn(func() error {
			for _, q := range probes {
				if _, err := e.QueryOpt(q.Lo, q.Hi, QueryOptions{}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	// Explicit creators: direct inserts race the limit; a full set is an
	// expected outcome, not a failure.
	spawn(func() error {
		for i := 0; i < 60; i++ {
			lo := uint64(i%10) * (ccDomain / 12)
			if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: lo, Hi: lo + ccDomain/15, Pinned: true}}); err != nil &&
				!strings.Contains(err.Error(), "view limit") {
				return err
			}
		}
		return nil
	})
	// Rebuilder: every rebuild recreates each view, so the captured
	// membership keeps changing after the set has frozen.
	spawn(func() error {
		for i := 0; i < 40; i++ {
			if err := e.RebuildViews(); err != nil {
				return err
			}
		}
		return nil
	})
	// Snapshot readers: pin epochs mid-storm and hold them across a few
	// queries, so retirement always has a non-trivial drain to wait on.
	spawn(func() error {
		for i := 0; i < 80; i++ {
			snap, err := e.Snapshot()
			if err != nil {
				return err
			}
			first, err := snap.QueryOpt(0, ccDomain, QueryOptions{})
			if err == nil {
				var again Answer
				if again, err = snap.QueryOpt(0, ccDomain, QueryOptions{}); err == nil &&
					(again.Count != first.Count || again.Sum != first.Sum) {
					err = fmt.Errorf("pinned reads diverged: %d/%d then %d/%d",
						first.Count, first.Sum, again.Count, again.Sum)
				}
			}
			snap.Close()
			if err != nil {
				return err
			}
		}
		return nil
	})

	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// After the storm the engine still answers exactly.
	wantCount, wantSum, err := e.Column().FullScan(0, ccDomain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.QueryOpt(0, ccDomain, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != wantCount || got.Sum != wantSum {
		t.Fatalf("post-storm answer %d/%d, want %d/%d", got.Count, got.Sum, wantCount, wantSum)
	}
}

// TestClosePendingRetiredFreed: writes applied but never aligned leave
// the close-time publication's displaced frames parked in
// pendingRetired, with no later publication to fold them into. Close's
// final-drain sweep must free every one of them, leaving physical memory
// exactly where it started.
func TestClosePendingRetiredFreed(t *testing.T) {
	const pages = 64
	col := testColumn(t, pages, dist.NewLinear(5, 0, ccDomain, pages))
	e, err := NewEngine(col, syncConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One view over the whole domain: every write shadows a page it
	// indexes, so its soft-TLB keeps the displaced frame until aligned.
	if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: 0, Hi: ccDomain, Pinned: true}}); err != nil {
		t.Fatal(err)
	}
	base := col.Kernel().MemStats()
	for _, u := range workload.UniformUpdates(9, 40, col.Rows(), 0, ccDomain) {
		if err := e.Update(u.Row, u.Value); err != nil {
			t.Fatal(err)
		}
	}
	if ms := col.Kernel().MemStats(); ms.FramesInUse <= base.FramesInUse {
		t.Fatalf("copy-on-write writes did not grow frame usage (%d -> %d)",
			base.FramesInUse, ms.FramesInUse)
	}

	// No flush: Close publishes with the writes still unaligned.
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	e.mu.Lock()
	left := len(e.pendingRetired)
	e.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d pending-retired frames survived Close", left)
	}
	if ms := col.Kernel().MemStats(); ms.FramesInUse != base.FramesInUse {
		t.Fatalf("frame leak across Close: %d in use, want %d",
			ms.FramesInUse, base.FramesInUse)
	}
}
