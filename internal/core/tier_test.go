package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asv-db/asv/internal/autopilot"
	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/vmsim"
	"github.com/asv-db/asv/internal/workload"
)

// tieredConfig returns syncConfig with a second frame tier attached
// (stall accounting only — deterministic tests don't busy-wait).
func tieredConfig(hotFrames int) Config {
	cfg := syncConfig()
	cfg.Tiering = &vmsim.TierConfig{HotFrames: hotFrames, NoStall: true}
	return cfg
}

// TestTieredConfigValidation: negative tier knobs are rejected, a nil or
// disabled config runs single-tier (Engine.TierStats reports ok=false).
func TestTieredConfigValidation(t *testing.T) {
	col := testColumn(t, 8, dist.NewUniform(1, 0, 10))
	bad := tieredConfig(-1)
	if _, err := NewEngine(col, bad); err == nil {
		t.Fatal("negative HotFrames accepted")
	}
	bad = tieredConfig(4)
	bad.Tiering.ColdMultiplier = -2
	if _, err := NewEngine(col, bad); err == nil {
		t.Fatal("negative ColdMultiplier accepted")
	}
	off := syncConfig()
	off.Tiering = &vmsim.TierConfig{} // zero value: tiering off
	e := newEngine(t, testColumn(t, 8, dist.NewUniform(1, 0, 10)), off)
	if _, ok := e.TierStats(); ok {
		t.Fatal("zero-value TierConfig enabled tiering")
	}
	if e.Tier() != nil {
		t.Fatal("zero-value TierConfig attached a tier map")
	}
}

// TestTieredQueryByteIdentical: a tiered engine answers every query
// byte-identically to an untiered twin over the same data — hot, after
// demoting every page, and after the touches promoted pages back. The
// tier only charges accounting; results never move.
func TestTieredQueryByteIdentical(t *testing.T) {
	const pages = 64
	g := func() dist.Generator { return dist.NewSine(9, 0, ccDomain, 8) }
	et := newEngine(t, testColumn(t, pages, g()), tieredConfig(pages/4))
	eu := newEngine(t, testColumn(t, pages, g()), syncConfig())

	model := newRefModel(eu.col)
	check := func(stage string) {
		t.Helper()
		for i := 0; i < 16; i++ {
			lo := uint64(i) * ccDomain / 20
			hi := lo + ccDomain/10
			opt := materializations(i)
			rt, err := et.QueryOpt(lo, hi, opt)
			if err != nil {
				t.Fatal(err)
			}
			ru, err := eu.QueryOpt(lo, hi, opt)
			if err != nil {
				t.Fatal(err)
			}
			if rt.QueryResult != ru.QueryResult {
				t.Fatalf("%s query %d: tiered %+v != untiered %+v", stage, i, rt.QueryResult, ru.QueryResult)
			}
			model.check(t, stage+" tiered", lo, hi, opt, rt)
			model.check(t, stage+" untiered", lo, hi, opt, ru)
		}
	}
	check("hot")
	tier := et.Tier()
	for p := 0; p < pages; p++ {
		tier.Demote(p)
	}
	check("cold")
	s, ok := et.TierStats()
	if !ok {
		t.Fatal("TierStats not ok on a tiered engine")
	}
	if s.Demotions == 0 || s.ColdTouches == 0 || s.StallNanos == 0 {
		t.Fatalf("cold scans left no tier trace: %+v", s)
	}
	if s.Promotions == 0 {
		t.Fatalf("touches under budget promoted nothing: %+v", s)
	}
	if s.HotFrames > s.HotBudget {
		t.Fatalf("promote-on-touch overshot the budget: %+v", s)
	}
}

// TestSnapshotReadJournalsTierPromotions: promote-on-access is journalled
// by the one read body, so a snapshot read that pulls every page back to
// the hot tier accounts for all of them, like a live read does.
func TestSnapshotReadJournalsTierPromotions(t *testing.T) {
	const pages = 64
	cfg := tieredConfig(pages)
	cfg.JournalEvents = 256
	e := newEngine(t, testColumn(t, pages, dist.NewSine(9, 0, ccDomain, 8)), cfg)
	tier := e.Tier()
	for p := 0; p < pages; p++ {
		tier.Demote(p)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if _, err := snap.QueryOpt(0, ccDomain, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	ts, _ := e.TierStats()
	if ts.Promotions != pages {
		t.Fatalf("setup: %d promotions, want %d", ts.Promotions, pages)
	}
	var journalled uint64
	for _, ev := range e.Journal().Events() {
		if ev.Type == obs.EvTierPromoteBatch {
			journalled += uint64(ev.A)
		}
	}
	if journalled != ts.Promotions {
		t.Fatalf("journalled %d promoted pages, tier counted %d", journalled, ts.Promotions)
	}
}

// TestTieredWritePromotes: a write to a demoted page lands it hot
// unconditionally (the COW shadow is a fresh DRAM frame).
func TestTieredWritePromotes(t *testing.T) {
	const pages = 16
	e := newEngine(t, testColumn(t, pages, dist.NewLinear(3, 0, ccDomain, pages)), tieredConfig(2))
	tier := e.Tier()
	for p := 0; p < pages; p++ {
		tier.Demote(p)
	}
	if err := e.Update(5*storage.ValuesPerPage, 42); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FlushUpdates(); err != nil {
		t.Fatal(err)
	}
	if tier.IsCold(5) {
		t.Fatal("written page still cold")
	}
	s, _ := e.TierStats()
	// Hot budget is 2 and 16 pages were cold: the write promoted past the
	// budget — writes are unconditional.
	if s.Promotions == 0 {
		t.Fatalf("write did not promote: %+v", s)
	}
}

// TestTieredAutopilotDemotion drives the demotion duty end to end: hot
// occupancy over the high watermark makes the next maintenance tick
// demote the coldest unpinned view's pages, while a pinned view's pages
// stay hot.
func TestTieredAutopilotDemotion(t *testing.T) {
	clock := autopilot.NewManualClock(time.Unix(1000, 0))
	maints := make(chan autopilot.MaintainReport, 16)
	ap := quietAutopilot()
	ap.Clock = clock
	ap.MaintainInterval = 100 * time.Millisecond
	ap.OnMaintain = func(r autopilot.MaintainReport) { maints <- r }

	cfg := tieredConfig(16)
	cfg.Autopilot = ap
	cfg.MaxViews = 2
	e := newEngine(t, testColumn(t, 64, dist.NewLinear(5, 0, ccDomain, 64)), cfg)
	vs, err := e.CreateViewsOpt([]ViewSpec{
		{Lo: 0, Hi: ccDomain/4 - 1, Pinned: true},
		{Lo: ccDomain / 4, Hi: ccDomain/2 - 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pinned, demotable := vs[0], vs[1]
	if !pinned.Pinned() || demotable.Pinned() {
		t.Fatalf("pin flags: %v %v", pinned.Pinned(), demotable.Pinned())
	}

	// All 64 pages hot against a budget of 16: occupancy 4.0 is over the
	// high watermark and the duty must fire on the next tick.
	clock.Advance(100 * time.Millisecond)
	rep := <-maints
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	ids, err := demotable.PageIDs()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesDemoted != len(ids) {
		t.Fatalf("PagesDemoted = %d, want the unpinned view's %d pages", rep.PagesDemoted, len(ids))
	}
	tier := e.Tier()
	for _, id := range ids {
		if !tier.IsCold(int(id)) {
			t.Fatalf("unpinned view's page %d not demoted", id)
		}
	}
	pids, err := pinned.PageIDs()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range pids {
		if tier.IsCold(int(id)) {
			t.Fatalf("pinned view's page %d was demoted", id)
		}
	}
	m := e.Autopilot().Metrics()
	if m.PagesDemoted != uint64(rep.PagesDemoted) {
		t.Fatalf("metrics PagesDemoted = %d, report %d", m.PagesDemoted, rep.PagesDemoted)
	}
}

// TestTieredPressureKeepsRoutedViews: a saturated hot tier does not
// shorten a view's life. A view maps the column's file pages and owns no
// frames, so evicting it would not lower hot-tier occupancy; the tick
// keeps a view younger than ColdTicks (age 6 < 8) and relieves the
// pressure by demoting the unpinned view's pages instead.
func TestTieredPressureKeepsRoutedViews(t *testing.T) {
	clock := autopilot.NewManualClock(time.Unix(1000, 0))
	maints := make(chan autopilot.MaintainReport, 16)
	ap := quietAutopilot()
	ap.Clock = clock
	ap.MaintainInterval = 100 * time.Millisecond
	ap.ColdTicks = 8
	ap.OnMaintain = func(r autopilot.MaintainReport) { maints <- r }

	cfg := tieredConfig(4) // 64 pages vs budget 4: occupancy 16
	cfg.Autopilot = ap
	cfg.MaxViews = 2
	e := newEngine(t, testColumn(t, 64, dist.NewLinear(5, 0, ccDomain, 64)), cfg)
	vs, err := e.CreateViewsOpt([]ViewSpec{
		{Lo: 0, Hi: ccDomain/4 - 1, Pinned: true},
		{Lo: ccDomain / 2, Hi: 3*ccDomain/4 - 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 6 routed queries inside the pinned view's range: LRU clock reaches
	// 6, the idle view's age is 6 — under the configured ColdTicks of 8.
	for i := 0; i < 6; i++ {
		if _, err := e.QueryOpt(1000, ccDomain/8, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(100 * time.Millisecond)
	rep := <-maints
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Evicted != 0 {
		t.Fatalf("tier pressure evicted a view younger than ColdTicks: %+v", rep)
	}
	if got := e.Views(); len(got) != 2 || !slices.Contains(got, vs[0]) || !slices.Contains(got, vs[1]) {
		t.Fatalf("views %v, want both created views %v", got, vs)
	}
	if rep.PagesDemoted == 0 {
		t.Fatalf("saturated hot tier demoted nothing: %+v", rep)
	}
}

// TestTieredConcurrentDemoteWhileWriting races the one overlap the shared
// engine lock admits between maintenance and writes: the autopilot's
// temperature and demotion sweeps run beside UpdateBatch writers (both
// hold the lock shared, and both move tier words by CAS) while readers
// keep querying. Afterwards the column must equal a serial replay of the
// same writes, answers must equal a full scan, and the tier's cold
// counter must match the cold words it counts.
func TestTieredConcurrentDemoteWhileWriting(t *testing.T) {
	const (
		pages   = 64
		writers = 3
		readers = 2
		perW    = 384
		group   = 16
	)
	g := func() dist.Generator { return dist.NewClustered(13, 0, ccDomain, 0.05) }
	e := newEngine(t, testColumn(t, pages, g()), tieredConfig(pages/4))
	for _, r := range alignTestRanges {
		if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: r[0], Hi: r[1]}}); err != nil {
			t.Fatal(err)
		}
	}
	serial := alignEngine(t, g(), pages)

	// Disjoint rows per writer (row ≡ writer mod writers): the final
	// column state is then independent of scheduling.
	streams := workload.ConcurrentUpdaters(17, writers, perW, e.Column().Rows(), 0, ccDomain)
	for w := range streams {
		for i := range streams[w] {
			r := streams[w][i].Row
			streams[w][i].Row = r - r%writers + w
		}
	}

	var (
		writerWg, bgWg sync.WaitGroup
		writersDone    atomic.Bool
		demoted        atomic.Int64
	)
	// Writers start with the sweeper, so even a slow scheduler cannot
	// finish every write before the first sweep.
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(stream []workload.PointUpdate) {
			defer writerWg.Done()
			<-start
			for len(stream) > 0 {
				n := min(group, len(stream))
				ws := make([]RowWrite, n)
				for i, u := range stream[:n] {
					ws[i] = RowWrite{Row: u.Row, Value: u.Value}
				}
				if err := e.UpdateBatch(ws); err != nil {
					t.Error(err)
					return
				}
				stream = stream[n:]
			}
		}(streams[w])
	}
	bgWg.Add(1)
	go func() {
		defer bgWg.Done()
		target := pilotTarget{e}
		close(start)
		for done := false; !done; {
			done = writersDone.Load()
			_, temps := target.ViewTemperatures()
			handles := make([]any, len(temps))
			for i, tp := range temps {
				handles[i] = tp.Handle
			}
			n, err := target.DemotePages(handles, 4)
			if err != nil {
				t.Error(err)
				return
			}
			demoted.Add(int64(n))
		}
	}()
	for r := 0; r < readers; r++ {
		bgWg.Add(1)
		go func(qs []workload.Query) {
			defer bgWg.Done()
			for done := false; !done; {
				for _, q := range qs {
					if _, err := e.QueryOpt(q.Lo, q.Hi, QueryOptions{}); err != nil {
						t.Error(err)
						return
					}
					if writersDone.Load() {
						done = true
						break
					}
				}
			}
		}(workload.ConcurrentClients(19, readers, 32, ccDomain, 0.05)[r])
	}
	writerWg.Wait()
	writersDone.Store(true)
	bgWg.Wait()
	if t.Failed() {
		return
	}
	if _, err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if demoted.Load() == 0 {
		t.Fatal("the demotion sweep never demoted a page")
	}

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
	for row := 0; row < e.Column().Rows(); row++ {
		want, err := serial.Column().Value(row)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Column().Value(row)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("row %d = %d, serial replay has %d", row, got, want)
		}
	}
	for i := 0; i < 8; i++ {
		lo := uint64(i) * ccDomain / 10
		hi := lo + ccDomain/7
		ans, err := e.QueryOpt(lo, hi, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		count, sum, err := e.Column().FullScan(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Count != count || ans.Sum != sum {
			t.Fatalf("[%d,%d]: answer (%d,%d), full scan (%d,%d)", lo, hi, ans.Count, ans.Sum, count, sum)
		}
	}

	ts, _ := e.TierStats()
	cold := 0
	for p := 0; p < ts.Pages; p++ {
		if e.Tier().IsCold(p) {
			cold++
		}
	}
	if ts.HotFrames+ts.ColdFrames != ts.Pages || cold != ts.ColdFrames {
		t.Fatalf("tier occupancy not conserved: %+v, %d cold words", ts, cold)
	}
}
