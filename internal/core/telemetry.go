package core

import (
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/vmsim"
)

// This file is the engine's telemetry seam: the obs instrument handles
// every hot path bumps, the span helpers of the read path, and the
// Telemetry()/Journal() read surfaces. The discipline mirrors
// Engine.tier: instruments are always on (a handful of atomic adds,
// resolved once in NewEngine and only dereferenced afterwards), while
// tracing and the journal are nil-gated — with both off, a query pays
// one pointer test per gate and allocates nothing it did not allocate
// before telemetry existed.

// engineInstruments holds the engine's obs instrument handles, resolved
// once from the registry in NewEngine. Handles are stored once, bumped
// everywhere — the fields are pointers by the atomicfield lint rule.
type engineInstruments struct {
	reg *obs.Registry

	// retireLag observes publish→drain ns per retired epoch;
	// scanNsPerPage observes per-scan average ns per page.
	retireLag     *obs.Histogram
	scanNsPerPage *obs.Histogram
}

func newEngineInstruments() *engineInstruments {
	reg := obs.NewRegistry()
	return &engineInstruments{
		reg:           reg,
		retireLag:     reg.Histogram("epoch_retire_lag_ns"),
		scanNsPerPage: reg.Histogram("scan_ns_per_page"),
	}
}

// Telemetry snapshots every engine instrument into one obs.Snapshot:
// the engine's own histograms and counters (engine_*), the autopilot's
// (autopilot_*), the tier's (tier_*) and the simulated address space's
// (map_*). The encoding is stable (sorted keys), so snapshots diff
// cleanly across runs.
func (e *Engine) Telemetry() obs.Snapshot {
	s := e.ins.reg.Snapshot()
	st := e.stats.snapshot()
	s.AddCounter("engine_queries", st.Queries)
	s.AddCounter("engine_full_view_queries", st.FullViewQueries)
	s.AddCounter("engine_pages_scanned", st.PagesScanned)
	s.AddCounter("engine_views_created", st.ViewsCreated)
	s.AddCounter("engine_views_replaced", st.ViewsReplaced)
	s.AddCounter("engine_views_discarded", st.ViewsDiscarded)
	s.AddCounter("engine_updates_buffered", st.UpdatesBuffered)
	s.AddCounter("engine_update_batches", st.UpdateBatches)
	s.AddCounter("engine_pages_added", st.PagesAdded)
	s.AddCounter("engine_pages_removed", st.PagesRemoved)
	s.AddCounter("engine_views_expired", st.ViewsExpired)
	s.AddCounter("engine_views_rebuilt", st.ViewsRebuilt)
	s.AddCounter("engine_state_publishes", st.StatePublishes)
	s.AddCounter("engine_publish_ns", st.PublishNanos)
	s.AddCounter("engine_retire_errors", st.RetireErrors)
	if e.pilot != nil {
		s = s.Merge(e.pilot.Telemetry())
	}
	if e.tier != nil {
		ts := e.tier.Stats()
		s.SetGauge("tier_pages", int64(ts.Pages))
		s.SetGauge("tier_hot_frames", int64(ts.HotFrames))
		s.SetGauge("tier_cold_frames", int64(ts.ColdFrames))
		s.SetGauge("tier_hot_budget", int64(ts.HotBudget))
		s.AddCounter("tier_demotions", ts.Demotions)
		s.AddCounter("tier_promotions", ts.Promotions)
		s.AddCounter("tier_cold_touches", ts.ColdTouches)
		s.AddCounter("tier_stall_ns", ts.StallNanos)
	}
	ms := e.col.Space().Stats()
	s.AddCounter("map_mmap_calls", ms.MmapCalls)
	s.AddCounter("map_munmap_calls", ms.MunmapCalls)
	s.AddCounter("map_pages_mapped", ms.PagesMapped)
	s.AddCounter("map_pages_unmapped", ms.PagesUnmapped)
	s.AddCounter("map_vma_splits", ms.VMASplits)
	s.AddCounter("map_vma_merges", ms.VMAMerges)
	s.AddCounter("map_minor_faults", ms.MinorFaults)
	s.AddCounter("map_demand_maps", ms.DemandMaps)
	s.SetGauge("map_vma_count", int64(ms.VMACount))
	return s
}

// Journal returns the engine's event journal (nil when
// Config.JournalEvents left it disabled); obs.Journal methods are
// nil-safe, so callers may drain unconditionally.
func (e *Engine) Journal() *obs.Journal { return e.journal }

// traceBaselines snapshots the tier counters at scan start so
// finishScanSpan can attribute the deltas. It reads nothing unless a span
// is live (tracing is on) and the column is tiered.
func (e *Engine) traceBaselines(sp *obs.Span) vmsim.TierStats {
	if sp == nil || e.tier == nil {
		return vmsim.TierStats{}
	}
	return e.tier.Stats()
}

// finishScanSpan closes a scan span with the counter-delta attribution:
// pages scanned and — on a tiered column — cold touches and stall time,
// the latter also rendered as a synthetic child span so the stall shows
// up in the tree's time budget. Deltas are process-wide counters, so
// concurrent queries' activity can bleed into each other's attribution;
// the trace documents where the time class went, not a per-goroutine
// ledger.
func (e *Engine) finishScanSpan(sp *obs.Span, res *QueryResult, tierBase vmsim.TierStats) {
	sp.SetAttr("pages_scanned", int64(res.PagesScanned))
	if e.tier != nil {
		ts := e.tier.Stats()
		cold := int64(ts.ColdTouches - tierBase.ColdTouches)
		stall := int64(ts.StallNanos - tierBase.StallNanos)
		sp.SetAttr("cold_touches", cold)
		sp.SetAttr("stall_ns", stall)
		if stall > 0 {
			stallSp := sp.ChildAt("stall", sp.Start, sp.Start+stall)
			stallSp.SetAttr("cold_touches", cold)
		}
	}
	sp.Finish()
}

// journalTierPromotions folds promote-on-access activity into the
// journal as batches: the delta of the tier's promotion counter since
// the last observation. Concurrent observers may slice one burst into
// two events or attribute a few pages across a boundary — the journal is
// a diagnostic timeline, and the counter itself stays exact.
func (e *Engine) journalTierPromotions() {
	if e.journal == nil || e.tier == nil {
		return
	}
	cur := e.tier.Stats().Promotions
	prev := e.lastPromotions.Swap(cur)
	if cur > prev {
		e.journal.Record(obs.EvTierPromoteBatch, int64(cur-prev), 0, 0)
	}
}

// journalViewEvent records one view-lifecycle transition (insert /
// replace / evict / discard / expire / rebuild) with the view's covered
// range. One pointer test when the journal is disabled.
func (e *Engine) journalViewEvent(typ obs.EventType, lo, hi uint64) {
	if e.journal == nil {
		return
	}
	e.journal.Record(typ, int64(lo), int64(hi), 0)
}

// journalDutyBegin/journalDutyEnd bracket one autopilot duty entering
// the engine; work is the duty's unit count and failed marks an error
// outcome.
func (e *Engine) journalDutyBegin(duty int64) {
	if e.journal == nil {
		return
	}
	e.journal.Record(obs.EvDutyBegin, duty, 0, 0)
}

func (e *Engine) journalDutyEnd(duty, work int64, err error) {
	if e.journal == nil {
		return
	}
	failed := int64(0)
	if err != nil {
		failed = 1
	}
	e.journal.Record(obs.EvDutyEnd, duty, work, failed)
}
