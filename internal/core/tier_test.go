package core

import (
	"testing"
	"time"

	"github.com/asv-db/asv/internal/autopilot"
	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/vmsim"
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

// TestTieredAutopilotDemotion drives the pressure feedback end to end:
// hot occupancy over the high watermark makes the next maintenance tick
// demote the coldest unpinned view's pages, while a pinned view's pages
// stay hot.
func TestTieredAutopilotDemotion(t *testing.T) {
	clock := autopilot.NewManualClock(time.Unix(1000, 0))
	maints := make(chan autopilot.MaintainReport, 16)
	ap := quietAutopilot()
	ap.Clock = clock
	ap.MaintainInterval = 100 * time.Millisecond
	ap.OnMaintain = func(r autopilot.MaintainReport) { maints <- r }
	ap.TierHighWater = 0.5
	ap.TierLowWater = 0.25

	cfg := tieredConfig(16)
	cfg.Tiering.NoPromoteOnAccess = true
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

	// All 64 pages hot against a budget of 16: occupancy 4.0, pressure
	// saturates at 1 and the duty must fire on the next tick.
	clock.Advance(100 * time.Millisecond)
	rep := <-maints
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.TierPressure != 1 {
		t.Fatalf("TierPressure = %g, want 1", rep.TierPressure)
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

// TestTieredPressureAcceleratesEviction: simulated memory pressure
// scales the effective ColdTicks down, so a view that a pressure-free
// engine would keep (age 6 < ColdTicks 8) is evicted when the hot tier
// is saturated (effective ColdTicks 4 at full pressure).
func TestTieredPressureAcceleratesEviction(t *testing.T) {
	clock := autopilot.NewManualClock(time.Unix(1000, 0))
	maints := make(chan autopilot.MaintainReport, 16)
	ap := quietAutopilot()
	ap.Clock = clock
	ap.MaintainInterval = 100 * time.Millisecond
	ap.ColdTicks = 8
	ap.OnMaintain = func(r autopilot.MaintainReport) { maints <- r }
	ap.TierHighWater = 0.5
	ap.TierLowWater = 0.25

	cfg := tieredConfig(4) // 64 pages vs budget 4: saturated, pressure 1
	cfg.Autopilot = ap
	cfg.MaxViews = 2
	e := newEngine(t, testColumn(t, 64, dist.NewLinear(5, 0, ccDomain, 64)), cfg)
	if _, err := e.CreateViewsOpt([]ViewSpec{
		{Lo: 0, Hi: ccDomain/4 - 1, Pinned: true},
		{Lo: ccDomain / 2, Hi: 3*ccDomain/4 - 1},
	}); err != nil {
		t.Fatal(err)
	}
	// 6 routed queries inside the pinned view's range: LRU clock reaches
	// 6, the idle view's age is 6 — under the configured ColdTicks of 8,
	// over the pressure-scaled effective 4.
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
	if rep.Evicted != 1 {
		t.Fatalf("pressure did not accelerate eviction: %+v", rep)
	}
}
