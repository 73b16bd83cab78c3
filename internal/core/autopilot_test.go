package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asv-db/asv/internal/autopilot"
	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/workload"
)

// quietAutopilot is an autopilot configuration that never acts on its
// own: thresholds and deadlines are unreachable and the lifecycle ticker
// is off, so only synchronous barriers (Sync/FlushUpdates/Close) drain.
// Deterministic tests layer their one behaviour of interest on top.
func quietAutopilot() *autopilot.Config {
	return &autopilot.Config{
		CoalesceCount:    1 << 30,
		CoalesceBytes:    1 << 40,
		MaxFlushLatency:  time.Hour,
		MaintainInterval: -1,
		ColdTicks:        -1,
		RebuildFrag:      -1,
	}
}

// autoEngine builds an autopilot engine over a fresh column with the
// pinned alignment-test views.
func autoEngine(t *testing.T, g dist.Generator, pages int, ap *autopilot.Config) *Engine {
	t.Helper()
	cfg := syncConfig()
	cfg.Autopilot = ap
	e := newEngine(t, testColumn(t, pages, g), cfg)
	for _, r := range alignTestRanges {
		if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: r[0], Hi: r[1], Pinned: true}}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestAutopilotEquivalence is the serial-vs-autopilot equivalence table
// of the acceptance criteria: for every registered generator, the same
// update stream pushed through fire-and-forget autopilot Updates plus one
// Sync must produce byte-identical query results, alignment stats and
// view page sets as synchronous Update calls plus one FlushUpdates on an
// identical engine.
func TestAutopilotEquivalence(t *testing.T) {
	const pages = 64
	for _, name := range dist.Names() {
		t.Run(name, func(t *testing.T) {
			g, err := dist.ByName(name, 5, 0, ccDomain, pages)
			if err != nil {
				t.Fatal(err)
			}
			serial := alignEngine(t, g, pages)
			auto := autoEngine(t, g, pages, quietAutopilot())

			ups := workload.UniformUpdates(77, 800, serial.Column().Rows(), 0, ccDomain)
			for _, e := range []*Engine{serial, auto} {
				for _, u := range ups {
					if err := e.Update(u.Row, u.Value); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := auto.QueuedUpdates(); got != len(ups) {
				t.Fatalf("autopilot queued %d, want %d", got, len(ups))
			}
			ss, err := serial.FlushUpdates()
			if err != nil {
				t.Fatal(err)
			}
			as, err := auto.Sync()
			if err != nil {
				t.Fatal(err)
			}
			if auto.QueuedUpdates() != 0 || auto.PendingUpdates() != 0 {
				t.Fatalf("post-sync: %d queued, %d pending", auto.QueuedUpdates(), auto.PendingUpdates())
			}
			if ss.BatchSize != as.BatchSize || ss.NetUpdates != as.NetUpdates || ss.DirtyPages != as.DirtyPages ||
				ss.PagesAdded != as.PagesAdded || ss.PagesRemoved != as.PagesRemoved || ss.PagesScanned != as.PagesScanned {
				t.Fatalf("alignment stats diverged:\nserial %+v\nauto   %+v", ss, as)
			}
			sst, ast := serial.Stats(), auto.Stats()
			if sst.UpdatesBuffered != ast.UpdatesBuffered || sst.UpdateBatches != ast.UpdateBatches ||
				sst.PagesAdded != ast.PagesAdded || sst.PagesRemoved != ast.PagesRemoved {
				t.Fatalf("engine stats diverged:\nserial %+v\nauto   %+v", sst, ast)
			}
			for i := range serial.Views() {
				sIDs, err := serial.Views()[i].PageIDs()
				if err != nil {
					t.Fatal(err)
				}
				aIDs, err := auto.Views()[i].PageIDs()
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(sIDs) != fmt.Sprint(aIDs) {
					t.Fatalf("view %d page sets diverged:\n%v\n%v", i, sIDs, aIDs)
				}
			}
			for _, r := range alignTestRanges {
				wantCount, wantSum, err := serial.Column().FullScan(r[0], r[1])
				if err != nil {
					t.Fatal(err)
				}
				rs, err := serial.QueryOpt(r[0], r[1], QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				ra, err := auto.QueryOpt(r[0], r[1], QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if rs.Count != wantCount || rs.Sum != wantSum || ra.Count != wantCount || ra.Sum != wantSum {
					t.Fatalf("post-sync query [%d,%d]: serial (%d,%d), auto (%d,%d), want (%d,%d)",
						r[0], r[1], rs.Count, rs.Sum, ra.Count, ra.Sum, wantCount, wantSum)
				}
			}
		})
	}
}

// TestAutopilotDeadlineFlush pins the latency bound end to end with a
// manual clock: a lone fire-and-forget Update below every coalesce
// threshold is applied and aligned once MaxFlushLatency elapses — no
// reader, no Sync, no sleeps.
func TestAutopilotDeadlineFlush(t *testing.T) {
	clock := autopilot.NewManualClock(time.Unix(1000, 0))
	flushed := make(chan autopilot.FlushInfo, 4)
	ap := quietAutopilot()
	ap.Clock = clock
	ap.MaxFlushLatency = 5 * time.Millisecond
	ap.OnFlush = func(fi autopilot.FlushInfo) { flushed <- fi }
	e := autoEngine(t, dist.NewSine(3, 0, ccDomain, 8), 64, ap)

	if err := e.Update(11, 123); err != nil {
		t.Fatal(err)
	}
	clock.BlockUntilTimers(1)
	clock.Advance(5 * time.Millisecond)
	fi := <-flushed
	if fi.Err != nil || fi.Writes != 1 || fi.Reason != autopilot.FlushDeadline {
		t.Fatalf("flush info %+v", fi)
	}
	if fi.Latency != 5*time.Millisecond {
		t.Fatalf("flush latency %s, want the 5ms bound", fi.Latency)
	}
	// The write is applied AND aligned: visible to a plain read with
	// nothing left pending.
	if v, err := e.Column().Value(11); err != nil || v != 123 {
		t.Fatalf("value = %d, %v; want 123", v, err)
	}
	if e.QueuedUpdates() != 0 || e.PendingUpdates() != 0 {
		t.Fatalf("%d queued, %d pending after deadline flush", e.QueuedUpdates(), e.PendingUpdates())
	}
	m := e.Autopilot().Metrics()
	if m.DeadlineFlushes != 1 || m.Applied != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

// TestAutopilotCountFlush: filling CoalesceCount coalesces the writes
// into one group commit without any synchronous barrier.
func TestAutopilotCountFlush(t *testing.T) {
	flushed := make(chan autopilot.FlushInfo, 4)
	ap := quietAutopilot()
	ap.CoalesceCount = 8
	ap.OnFlush = func(fi autopilot.FlushInfo) { flushed <- fi }
	e := autoEngine(t, dist.NewSine(3, 0, ccDomain, 8), 64, ap)
	for i := 0; i < 8; i++ {
		if err := e.Update(i*7, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	fi := <-flushed
	if fi.Err != nil || fi.Writes != 8 || fi.Reason != autopilot.FlushCount {
		t.Fatalf("flush info %+v", fi)
	}
	if st := e.Stats(); st.UpdatesBuffered != 8 || st.UpdateBatches != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestAutopilotColdEviction drives the temperature lifecycle end to end:
// a pre-created view that routing never touches goes cold after
// ColdTicks routing ticks and is evicted on the next maintenance tick,
// reopening capacity; the hot view survives.
func TestAutopilotColdEviction(t *testing.T) {
	clock := autopilot.NewManualClock(time.Unix(1000, 0))
	maints := make(chan autopilot.MaintainReport, 16)
	ap := quietAutopilot()
	ap.Clock = clock
	ap.MaintainInterval = 100 * time.Millisecond
	ap.ColdTicks = 8
	ap.OnMaintain = func(r autopilot.MaintainReport) { maints <- r }

	cfg := syncConfig()
	cfg.Autopilot = ap
	// Freeze the set at the two pinned views: adaptive candidates would
	// otherwise out-route the hot view and make it look cold too.
	cfg.MaxViews = 2
	e := newEngine(t, testColumn(t, 64, dist.NewLinear(5, 0, ccDomain, 64)), cfg)
	if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: 0, Hi: ccDomain / 4, Pinned: true}}); err != nil {
		t.Fatal(err)
	}
	created, err := e.CreateViewsOpt([]ViewSpec{{Lo: ccDomain / 2, Hi: 3 * ccDomain / 4, Pinned: true}})
	if err != nil {
		t.Fatal(err)
	}
	cold := created[0]

	// 12 routed queries inside the hot view: the LRU clock passes
	// ColdTicks and the cold view's age exceeds it.
	for i := 0; i < 12; i++ {
		if _, err := e.QueryOpt(1000, ccDomain/8, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(100 * time.Millisecond)
	rep := <-maints
	if rep.Err != nil || rep.Evicted != 1 {
		t.Fatalf("maintain report %+v", rep)
	}
	if st := e.Stats(); st.ViewsExpired != 1 {
		t.Fatalf("stats %+v", st)
	}
	for _, v := range e.Views() {
		if v == cold {
			t.Fatal("cold view still in the set")
		}
	}
	// The engine keeps answering over the evicted range (full view).
	wantCount, wantSum, _ := e.Column().FullScan(ccDomain/2, 3*ccDomain/4)
	res, err := e.QueryOpt(ccDomain/2, 3*ccDomain/4, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != wantCount || res.Sum != wantSum {
		t.Fatalf("post-eviction query (%d,%d), want (%d,%d)", res.Count, res.Sum, wantCount, wantSum)
	}
}

// fragmentView shrinks-and-grows a pinned view through update alignment
// until its mapped page order has backward steps, returning the final
// fragmentation. Removal compacts by moving the last mapped page into
// the hole — exactly the churn the rebuild duty exists to undo.
func fragmentView(t *testing.T, e *Engine, lo, hi uint64) float64 {
	t.Helper()
	v := e.Views()[0]
	// Move every covered value of low pages out of range, then back in:
	// removals shuffle the tail into holes, re-adds append at the end.
	for round := 0; round < 3; round++ {
		ids, err := v.PageIDs()
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) < 4 {
			t.Fatal("premise: view too small to fragment")
		}
		for _, pid := range ids[:len(ids)/2] {
			base := int(pid) * valuesPerTestPage()
			for s := 0; s < valuesPerTestPage(); s++ {
				val, err := e.Column().Value(base + s)
				if err != nil {
					t.Fatal(err)
				}
				if val >= lo && val <= hi {
					if err := e.Update(base+s, hi+1000); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if _, err := e.FlushUpdates(); err != nil {
			t.Fatal(err)
		}
		// Bring one value per removed page back into range, appending the
		// pages at the view's tail in a different order.
		for i := len(ids)/2 - 1; i >= 0; i-- {
			row := int(ids[i]) * valuesPerTestPage()
			if err := e.Update(row, lo+(hi-lo)/2); err != nil {
				t.Fatal(err)
			}
			if _, err := e.FlushUpdates(); err != nil {
				t.Fatal(err)
			}
		}
	}
	frag, err := viewFragmentation(v)
	if err != nil {
		t.Fatal(err)
	}
	return frag
}

func valuesPerTestPage() int { return storage.ValuesPerPage }

// TestAutopilotRebuildDefragments: a churned view with backward page
// steps is rebuilt by the lifecycle into ascending order with identical
// coverage, and the engine's answers are unchanged.
func TestAutopilotRebuildDefragments(t *testing.T) {
	const pages = 64
	lo, hi := uint64(0), uint64(ccDomain/4)
	cfg := syncConfig()
	e := newEngine(t, testColumn(t, pages, dist.NewUniform(7, 0, ccDomain)), cfg)
	created, err := e.CreateViewsOpt([]ViewSpec{{Lo: lo, Hi: hi, Pinned: true}})
	if err != nil {
		t.Fatal(err)
	}
	v := created[0]

	frag := fragmentView(t, e, lo, hi)
	if frag == 0 {
		t.Fatal("premise: churn produced no fragmentation")
	}
	before, err := v.PageIDs()
	if err != nil {
		t.Fatal(err)
	}

	// Drive the rebuild through the pilot-target surface (what the
	// autopilot's maintenance tick calls).
	ok, err := pilotTarget{e}.RebuildView(v)
	if err != nil || !ok {
		t.Fatalf("rebuild: %v, %v", ok, err)
	}
	if st := e.Stats(); st.ViewsRebuilt != 1 {
		t.Fatalf("stats %+v", st)
	}
	nv := e.Views()[0]
	if nv == v {
		t.Fatal("view not replaced")
	}
	nfrag, err := viewFragmentation(nv)
	if err != nil {
		t.Fatal(err)
	}
	if nfrag != 0 {
		t.Fatalf("rebuilt fragmentation %g, want 0", nfrag)
	}
	after, err := nv.PageIDs()
	if err != nil {
		t.Fatal(err)
	}
	beforeSet := map[uint64]bool{}
	for _, id := range before {
		beforeSet[id] = true
	}
	if len(after) != len(before) {
		t.Fatalf("rebuilt view has %d pages, want %d", len(after), len(before))
	}
	for _, id := range after {
		if !beforeSet[id] {
			t.Fatalf("rebuilt view gained page %d", id)
		}
	}
	wantCount, wantSum, _ := e.Column().FullScan(lo, hi)
	res, err := e.QueryOpt(lo, hi, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != wantCount || res.Sum != wantSum {
		t.Fatalf("post-rebuild query (%d,%d), want (%d,%d)", res.Count, res.Sum, wantCount, wantSum)
	}
	// Rebuilding a vanished handle is a no-op.
	ok, err = pilotTarget{e}.RebuildView(v)
	if ok || err != nil {
		t.Fatalf("stale rebuild: %v, %v", ok, err)
	}
}

// TestAutopilotQueryDoesNotWaitOnIntake: with an autopilot, queries are
// decoupled from the intake — a query between enqueue and flush runs
// against the last aligned state instead of paying the flush, and Sync
// is the read-your-writes barrier.
func TestAutopilotQueryDoesNotWaitOnIntake(t *testing.T) {
	e := autoEngine(t, dist.NewLinear(5, 0, ccDomain, 64), 64, quietAutopilot())
	r := alignTestRanges[0]
	before, err := e.QueryOpt(r[0], r[1], QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Move one covered value out of the queried range, fire-and-forget.
	covered, err := e.QueryOpt(r[0], r[1], QueryOptions{CollectRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if covered.Rows.Len() == 0 {
		t.Fatal("premise: no covered rows")
	}
	row := covered.Rows.Rows()[0]
	if err := e.Update(row, ccDomain-1); err != nil {
		t.Fatal(err)
	}
	mid, err := e.QueryOpt(r[0], r[1], QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mid.Count != before.Count {
		t.Fatalf("query observed the queued write early: %d != %d", mid.Count, before.Count)
	}
	if _, err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	after, err := e.QueryOpt(r[0], r[1], QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != before.Count-1 {
		t.Fatalf("post-sync count %d, want %d", after.Count, before.Count-1)
	}
}

// TestAutopilotConcurrentFairness is the engine-lock fairness stress:
// reader scans, fire-and-forget writers and the
// autopilot's background flush/maintenance slices race on one engine
// under -race. All three groups must make progress — no starvation — and
// the final column must be byte-identical to synchronous flushing of the
// same streams.
func TestAutopilotConcurrentFairness(t *testing.T) {
	const (
		pages   = 96
		writers = 3
		readers = 3
		perW    = 600
	)
	g := dist.NewClustered(9, 0, ccDomain, 0.05)
	ap := &autopilot.Config{
		CoalesceCount:    32,
		MaxFlushLatency:  time.Millisecond,
		MaintainInterval: 2 * time.Millisecond,
		ColdTicks:        -1, // keep the pinned views: this test is about fairness
		RebuildFrag:      0.99,
	}
	auto := autoEngine(t, g, pages, ap)
	serial := alignEngine(t, g, pages)

	// Disjoint rows per writer (row ≡ writer mod writers): the final
	// column state is then independent of scheduling.
	streams := workload.ConcurrentUpdaters(11, writers, perW, auto.Column().Rows(), 0, ccDomain)
	for w := range streams {
		for i := range streams[w] {
			r := streams[w][i].Row
			streams[w][i].Row = r - r%writers + w
		}
	}

	var (
		wg           sync.WaitGroup
		writersDone  atomic.Bool
		readerTotal  [readers]int64
		writerVolume atomic.Int64
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(stream []workload.PointUpdate) {
			defer wg.Done()
			for _, u := range stream {
				if err := auto.Update(u.Row, u.Value); err != nil {
					t.Error(err)
					return
				}
				writerVolume.Add(1)
			}
		}(streams[w])
	}
	var readerWg sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWg.Add(1)
		go func(r int) {
			defer readerWg.Done()
			qs := workload.ConcurrentClients(33, readers, 64, ccDomain, 0.02)[r]
			// Every reader always runs at least one query: on a single
			// hardware thread the writers can finish their whole streams
			// before a reader is first scheduled — that is scheduling,
			// not starvation, and the query still has to finish against
			// the autopilot's background slices.
			for done := false; !done; {
				for _, q := range qs {
					if _, err := auto.QueryOpt(q.Lo, q.Hi, QueryOptions{}); err != nil {
						t.Error(err)
						return
					}
					atomic.AddInt64(&readerTotal[r], 1)
					if writersDone.Load() {
						done = true
						break
					}
				}
			}
		}(r)
	}
	wg.Wait()
	writersDone.Store(true)
	readerWg.Wait()
	if t.Failed() {
		return
	}

	if _, err := auto.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := writerVolume.Load(); got != writers*perW {
		t.Fatalf("writers applied %d, want %d", got, writers*perW)
	}
	for r := range readerTotal {
		if readerTotal[r] == 0 {
			t.Fatalf("reader %d starved (0 queries)", r)
		}
	}
	m := auto.Autopilot().Metrics()
	if m.Flushes == 0 {
		t.Fatal("autopilot never flushed in the background")
	}
	if m.Enqueued != uint64(writers*perW) {
		t.Fatalf("autopilot enqueued %d, want %d", m.Enqueued, writers*perW)
	}

	// Byte-identical to synchronous flushing: replay the same disjoint
	// streams serially and compare the whole domain.
	for _, stream := range streams {
		for _, u := range stream {
			if err := serial.Update(u.Row, u.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := serial.FlushUpdates(); err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]uint64{{0, ccDomain}, {0, ccDomain / 3}, {ccDomain / 2, ccDomain}} {
		sc, su, err := serial.Column().FullScan(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		ac, au, err := auto.Column().FullScan(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		if sc != ac || su != au {
			t.Fatalf("final column state diverged over [%d,%d]: (%d,%d) vs (%d,%d)",
				q[0], q[1], sc, su, ac, au)
		}
		ar, err := auto.QueryOpt(q[0], q[1], QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ar.Count != ac || ar.Sum != au {
			t.Fatalf("autopilot engine answers diverge from its column over [%d,%d]", q[0], q[1])
		}
	}
}

// TestAutopilotUpdateBatchOrdering pins the mixed-path contract: on an
// autopilot engine, UpdateBatch drains the fire-and-forget intake before
// its direct group commit, so a queued older Update to the same row can
// never be replayed over the newer batched write.
func TestAutopilotUpdateBatchOrdering(t *testing.T) {
	e := autoEngine(t, dist.NewUniform(1, 0, ccDomain), 64, quietAutopilot())
	const row = 7
	if err := e.Update(row, 1); err != nil { // queued, not yet applied
		t.Fatal(err)
	}
	if err := e.UpdateBatch([]RowWrite{{Row: row, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	if got := e.QueuedUpdates(); got != 0 {
		t.Fatalf("UpdateBatch left %d writes queued", got)
	}
	if _, err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if v, err := e.Column().Value(row); err != nil || v != 2 {
		t.Fatalf("value = %d, %v; want the batched write (2) to win program order", v, err)
	}
	// And the reverse order: batch first, lone update later.
	if err := e.UpdateBatch([]RowWrite{{Row: row, Value: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(row, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Column().Value(row); v != 4 {
		t.Fatalf("value = %d, want 4", v)
	}
}

// TestAutopilotCloseDrains: accepted fire-and-forget writes survive
// Close — the final drain applies them to the column before the views
// are released.
func TestAutopilotCloseDrains(t *testing.T) {
	cfg := syncConfig()
	cfg.Autopilot = quietAutopilot()
	col := testColumn(t, 32, dist.NewUniform(1, 0, ccDomain))
	e, err := NewEngine(col, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Update(5, 42); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if v, err := col.Value(5); err != nil || v != 42 {
		t.Fatalf("value after close = %d, %v; want 42", v, err)
	}
	// Fire-and-forget after close is refused, not silently dropped.
	if err := e.Update(6, 7); err == nil {
		t.Fatal("update accepted after Close")
	}
}
