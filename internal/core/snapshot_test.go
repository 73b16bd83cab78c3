package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/asv-db/asv/internal/autopilot"
	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/viewset"
	"github.com/asv-db/asv/internal/workload"
	"github.com/asv-db/asv/internal/xrand"
)

// TestSnapshotEquivalence is the read-path equivalence table: for every
// registered generator, a full adaptive query sequence must be
// byte-identical across QueryOpt with no options and QueryOpt with
// materializations — answers, telemetry, and the adapted view sets. A
// third engine answers every query from a freshly pinned snapshot, which
// must agree on the answer (snapshots do not adapt, so scan telemetry
// legitimately differs). The options side and the snapshot cycle through
// plain, Aggregate and Rows queries, all held against a brute-force walk.
func TestSnapshotEquivalence(t *testing.T) {
	const pages = 96
	queries := workload.SelectivitySweep(13, 30, ccDomain, ccDomain/2, ccDomain/100)
	for _, name := range dist.Names() {
		t.Run(name, func(t *testing.T) {
			g, err := dist.ByName(name, 5, 0, ccDomain, pages)
			if err != nil {
				t.Fatal(err)
			}
			mk := func() *Engine {
				return newEngine(t, testColumn(t, pages, g), syncConfig())
			}
			epoch := mk()
			opts := mk()
			pinned := mk()
			model := newRefModel(epoch.col)
			for i, q := range queries {
				re, err := epoch.QueryOpt(q.Lo, q.Hi, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				// What a query asks to have materialized changes neither its
				// routing telemetry nor what it adapts.
				opt := materializations(i)
				ao, err := opts.QueryOpt(q.Lo, q.Hi, opt)
				if err != nil {
					t.Fatal(err)
				}
				if re.QueryResult != ao.QueryResult {
					t.Fatalf("query %d [%d,%d]: plain %+v != with options %+v", i, q.Lo, q.Hi, re.QueryResult, ao.QueryResult)
				}
				model.check(t, fmt.Sprintf("live query %d", i), q.Lo, q.Hi, opt, ao)
				snap, err := pinned.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				as, err := snap.QueryOpt(q.Lo, q.Hi, opt)
				if cerr := snap.Close(); cerr != nil {
					t.Fatal(cerr)
				}
				if err != nil {
					t.Fatal(err)
				}
				model.check(t, fmt.Sprintf("snapshot query %d", i), q.Lo, q.Hi, opt, as)
			}
			ve, vo := epoch.Views(), opts.Views()
			if len(ve) != len(vo) {
				t.Fatalf("view sets diverged: %d / %d", len(ve), len(vo))
			}
			for i := range ve {
				if ve[i].NumPages() != vo[i].NumPages() {
					t.Fatalf("view %d page counts diverged", i)
				}
				if ve[i].Lo() != vo[i].Lo() || ve[i].Hi() != vo[i].Hi() {
					t.Fatalf("view %d ranges diverged", i)
				}
			}
		})
	}
}

// TestQuartetWrapperEquivalence pins that what a query asks QueryOpt for
// — rows, an aggregate or both — changes nothing else: every answer's
// QueryResult AND the cumulative telemetry after the run are identical
// to a plain QueryOpt's.
func TestQuartetWrapperEquivalence(t *testing.T) {
	const pages = 64
	queries := workload.SelectivitySweep(17, 20, ccDomain, ccDomain/3, ccDomain/100)
	g := dist.NewSine(9, 0, ccDomain, 8)

	plain := newEngine(t, testColumn(t, pages, g), syncConfig())
	opt := newEngine(t, testColumn(t, pages, g), syncConfig())

	quartet := []QueryOptions{
		{},
		{CollectRows: true},
		{CollectRows: true, ComputeAggregate: true},
		{ComputeAggregate: true},
	}
	for i, q := range queries {
		o := quartet[i%len(quartet)]
		ap, err := plain.QueryOpt(q.Lo, q.Hi, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ao, err := opt.QueryOpt(q.Lo, q.Hi, o)
		if err != nil {
			t.Fatal(err)
		}
		if ap.QueryResult != ao.QueryResult {
			t.Fatalf("query %d with %+v: %+v != plain %+v", i, o, ao.QueryResult, ap.QueryResult)
		}
		if o.CollectRows && ao.Rows.Len() != ap.Count {
			t.Fatalf("query %d: %d rows, plain counted %d", i, ao.Rows.Len(), ap.Count)
		}
		if o.ComputeAggregate && (ao.Agg.Count != ap.Count || ao.Agg.Sum != ap.Sum) {
			t.Fatalf("query %d: aggregate %+v, plain %d/%d", i, *ao.Agg, ap.Count, ap.Sum)
		}
	}
	sp, so := plain.Stats(), opt.Stats()
	// Publication wall time is the one nondeterministic counter.
	sp.PublishNanos, so.PublishNanos = 0, 0
	if sp != so {
		t.Fatalf("telemetry diverged:\nplain   %+v\noptions %+v", sp, so)
	}
}

// TestEpochReadsBypassScanRoom is the pinned acceptance test for the
// epoch redesign: routed reads take no engine lock, so a reader
// completes while a goroutine holds the lock exclusively (as alignment,
// rebuilds and lifecycle work do).
func TestEpochReadsBypassScanRoom(t *testing.T) {
	const pages = 64
	g := dist.NewSine(21, 0, ccDomain, 8)

	// Freeze the view set first so the probe query publishes nothing
	// (publication legitimately serializes behind the exclusive lock;
	// the answer path must not).
	frozenCfg := syncConfig()
	frozenCfg.MaxViews = 1
	eng := newEngine(t, testColumn(t, pages, g), frozenCfg)
	if _, err := eng.QueryOpt(0, ccDomain/10, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryOpt(ccDomain/2, ccDomain/2+ccDomain/10, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if !eng.ViewSet().Frozen() {
		t.Fatal("setup: view set not frozen")
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	baseline := newEngine(t, testColumn(t, pages, g), BaselineConfig())

	// Hold each engine's lock exclusively, as a mid-alignment flush does.
	eng.mu.Lock()
	baseline.mu.Lock()

	probe := func(name string, run func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: reader stalled behind the exclusive engine lock", name)
		}
	}
	probe("epoch query", func() error {
		_, err := eng.QueryOpt(100, ccDomain/20, QueryOptions{})
		return err
	})
	probe("snapshot query", func() error {
		_, err := snap.QueryOpt(100, ccDomain/20, QueryOptions{})
		return err
	})
	probe("baseline query", func() error {
		_, err := baseline.QueryOpt(100, ccDomain/20, QueryOptions{})
		return err
	})

	eng.mu.Unlock()
	baseline.mu.Unlock()
}

// TestSnapshotRepeatableReads pins the snapshot contract: a pinned
// epoch returns identical answers before and after a writer updates and
// flushes, while live queries observe the new values.
func TestSnapshotRepeatableReads(t *testing.T) {
	const pages = 64
	eng := newEngine(t, testColumn(t, pages, dist.NewUniform(31, 0, ccDomain)), syncConfig())
	lo, hi := uint64(0), uint64(ccDomain/4)

	before, err := eng.QueryOpt(lo, hi, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	first, err := snap.QueryOpt(lo, hi, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Count != before.Count || first.Sum != before.Sum {
		t.Fatalf("snapshot disagrees with pre-pin query: %+v vs %+v", first, before)
	}

	// Move every row in [lo, hi] out of the range, flushing mid-stream so
	// alignment storms the engine lock while the snapshot stays pinned.
	rng := xrand.New(7)
	for i := 0; i < eng.Column().Rows(); i++ {
		v, err := eng.Column().Value(i)
		if err != nil {
			t.Fatal(err)
		}
		if v >= lo && v <= hi {
			if err := eng.Update(i, hi+1+rng.Uint64n(1000)); err != nil {
				t.Fatal(err)
			}
		}
		if i%997 == 0 {
			if _, err := eng.FlushUpdates(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := eng.FlushUpdates(); err != nil {
		t.Fatal(err)
	}

	live, err := eng.QueryOpt(lo, hi, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if live.Count != 0 {
		t.Fatalf("live query still sees %d rows in the drained range", live.Count)
	}
	again, err := snap.QueryOpt(lo, hi, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Count != first.Count || again.Sum != first.Sum {
		t.Fatalf("pinned read not repeatable: %+v then %+v", first, again)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochRetirementReleasesEvictedViews checks the retire path: a view
// displaced from the live set stays mapped — and routable — for a pinned
// snapshot, and its mmap is released only when the pinning epoch drains,
// with the vmsim mapping count returning to the expected level.
func TestEpochRetirementReleasesEvictedViews(t *testing.T) {
	const pages = 64
	cfg := syncConfig()
	cfg.MaxViews = 1
	// r = pages: any candidate over a superset of v1's range replaces it.
	cfg.ReplaceTolerance = pages
	// Eager creation: the test observes the displaced view's file mappings
	// disappearing on drain, so its pages must be mapped up front (a lazy
	// view that is never touched maps nothing and unmapping is a no-op).
	cfg.Create.Lazy = false
	col := testColumn(t, pages, dist.NewSine(41, 0, ccDomain, 8))
	eng := newEngine(t, col, cfg)

	r1, err := eng.QueryOpt(0, ccDomain/8, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Decision != viewset.Inserted {
		t.Fatalf("setup: first query %v, want inserted", r1.Decision)
	}
	v1 := eng.Views()[0]
	v1Pages := v1.NumPages()
	want1, err := eng.QueryOpt(0, ccDomain/8, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// A query over a superset of v1's range replaces v1.
	r2, err := eng.QueryOpt(0, ccDomain/4, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Decision != viewset.Replaced {
		t.Fatalf("second query %v, want replaced", r2.Decision)
	}
	if eng.set.Contains(v1) {
		t.Fatal("v1 still a set member")
	}

	mappedPinned := col.File().MappedPages()
	// The pinned epoch still routes to — and scans — the displaced view.
	got, err := snap.QueryOpt(0, ccDomain/8, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want1.Count || got.Sum != want1.Sum || got.PagesScanned != want1.PagesScanned {
		t.Fatalf("pinned scan of displaced view diverged: %+v vs %+v", got, want1)
	}
	if got.UsedFullView {
		t.Fatal("pinned query fell back to the full view")
	}

	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	mappedAfter := col.File().MappedPages()
	if mappedAfter != mappedPinned-v1Pages {
		t.Fatalf("displaced view not unmapped on drain: %d -> %d (view had %d pages)",
			mappedPinned, mappedAfter, v1Pages)
	}
}

// TestSnapshotAfterCloseRefused pins the close-path hazard: a snapshot
// taken after Close would outlive the drain barrier and read column
// frames the owner is free to release, so the pin must be refused.
func TestSnapshotAfterCloseRefused(t *testing.T) {
	eng := newEngine(t, testColumn(t, 16, dist.NewUniform(61, 0, 1000)), syncConfig())
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Snapshot(); err == nil {
		t.Fatal("snapshot on closed engine succeeded")
	}
}

// TestCloseWaitsForFinalStatePins pins the drain barrier's coverage of
// the CURRENT state: a reader pinned to the state Close publishes (or
// the one preceding it) must hold Close open until it releases — the
// facade frees the column's frames right after Engine.Close returns.
func TestCloseWaitsForFinalStatePins(t *testing.T) {
	eng := newEngine(t, testColumn(t, 16, dist.NewUniform(71, 0, 1000)), syncConfig())
	st := eng.acquireState()

	closed := make(chan error, 1)
	go func() { closed <- eng.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a reader pin was outstanding")
	case <-time.After(100 * time.Millisecond):
	}
	eng.releaseState(st)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the pin was released")
	}
}

// TestBarePublicationParksDisplacedFrames pins the frame-recycling
// hazard of a publication that is not an alignment (candidate insert, a
// lifecycle duty) while applied writes are still unaligned: the views
// those writes did not touch keep sharing captures that resolve to the
// displaced frames, so the frames must stay parked until the alignment's
// own publication — retiring them with the bare publication let the next
// shadowing write recycle a frame under a pinned reader, which then
// answered from another page's bytes.
func TestBarePublicationParksDisplacedFrames(t *testing.T) {
	const pages = 64
	col := testColumn(t, pages, dist.NewLinear(5, 0, ccDomain, pages))
	cfg := syncConfig()
	cfg.Create.Lazy = false
	e := newEngine(t, col, cfg)
	lo, hi := uint64(ccDomain/4), uint64(ccDomain/2)
	if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: lo, Hi: hi, Pinned: true}}); err != nil {
		t.Fatal(err)
	}
	wantCount, wantSum, err := col.FullScan(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite one row of the view with its own value: the page is
	// shadowed (its old frame displaced) and the write stays buffered.
	row := -1
	var val uint64
	for r := 0; r < col.Rows() && row < 0; r++ {
		if val, err = col.Value(r); err != nil {
			t.Fatal(err)
		} else if val >= lo && val <= hi {
			row = r
		}
	}
	if row < 0 {
		t.Fatal("setup: no row inside the view")
	}
	if err := e.Update(row, val); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	e.publishStateLocked()
	e.mu.Unlock()
	st := e.acquireState()
	defer e.releaseState(st)
	// The next shadowing write takes whatever frame the allocator hands
	// out — the displaced one, if the bare publication retired it.
	if err := e.Update(0, 0); err != nil {
		t.Fatal(err)
	}
	ans, err := e.read(st, lo, hi, QueryOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if ans.UsedFullView {
		t.Fatal("setup: pinned read routed to the full view")
	}
	if ans.Count != wantCount || ans.Sum != wantSum {
		t.Fatalf("pinned read over a recycled frame: %d/%d, want %d/%d", ans.Count, ans.Sum, wantCount, wantSum)
	}
}

// TestSnapshotRacesAutopilotLifecycle is the -race stress of the
// satellite checklist: snapshot readers race fire-and-forget writers and
// an aggressive autopilot lifecycle (eviction + rebuild), and
// afterwards every retired view mmap and shadow frame must drain —
// mapping and frame counts return exactly to the column baseline.
func TestSnapshotRacesAutopilotLifecycle(t *testing.T) {
	const pages = 96
	col := testColumn(t, pages, dist.NewSine(51, 0, ccDomain, 8))
	kernel := col.Kernel()
	baseFrames := kernel.FramesInUse()

	cfg := syncConfig()
	cfg.MaxViews = 6
	cfg.Autopilot = &autopilot.Config{
		CoalesceCount:    32,
		MaxFlushLatency:  500 * time.Microsecond,
		MaintainInterval: time.Millisecond,
		ColdTicks:        64,
		RebuildFrag:      0.05,
		MinRebuildPages:  1,
	}
	eng, err := NewEngine(col, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)

	// Snapshot readers: pin, query a few times, re-pin.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := eng.Snapshot()
				if err != nil {
					errs <- err
					return
				}
				for i := 0; i < 8; i++ {
					lo := rng.Uint64n(ccDomain)
					hi := lo + ccDomain/50
					if _, err := snap.QueryOpt(lo, hi, QueryOptions{}); err != nil {
						errs <- fmt.Errorf("snapshot query: %w", err)
						_ = snap.Close()
						return
					}
				}
				if err := snap.Close(); err != nil {
					errs <- err
					return
				}
			}
		}(100 + uint64(r))
	}
	// Live epoch readers keep the temperature clock moving.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := rng.Uint64n(ccDomain)
				if _, err := eng.QueryOpt(lo, lo+ccDomain/40, QueryOptions{}); err != nil {
					errs <- fmt.Errorf("live query: %w", err)
					return
				}
			}
		}(200 + uint64(r))
	}
	// Fire-and-forget writers force coalesced flush + alignment storms.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := eng.Update(int(rng.Uint64n(uint64(col.Rows()))), rng.Uint64n(ccDomain)); err != nil {
					errs <- fmt.Errorf("update: %w", err)
					return
				}
			}
		}(300 + uint64(w))
	}

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Every partial view released: only the full view's pages remain
	// mapped, and every copy-on-write shadow frame was returned.
	if got := col.File().MappedPages(); got != pages {
		t.Fatalf("mappings did not drain: %d, want %d (full view only)", got, pages)
	}
	if got := kernel.FramesInUse(); got != baseFrames {
		t.Fatalf("frames did not drain: %d, want %d", got, baseFrames)
	}
}
