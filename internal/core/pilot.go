package core

import (
	"github.com/asv-db/asv/internal/autopilot"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/view"
)

// This file is the engine side of the autopilot subsystem: the Target
// adapter the pilot drives, the per-view temperature/fragmentation
// export, and the synchronous barriers (Sync) callers use to get
// read-your-writes semantics on top of fire-and-forget updates.

// Autopilot returns the engine's pilot (nil when Config.Autopilot is
// unset) — metrics and flush latencies hang off it.
func (e *Engine) Autopilot() *autopilot.Pilot { return e.pilot }

// QueuedUpdates returns the number of writes accepted by Update but not
// yet applied to the column (always 0 without an autopilot; buffered
// applied-but-unaligned updates are PendingUpdates).
func (e *Engine) QueuedUpdates() int {
	if e.pilot == nil {
		return 0
	}
	return e.pilot.Queued()
}

// Sync is the engine's read-your-writes barrier: it applies every write
// accepted so far (draining the autopilot intake, when one runs) and
// aligns all partial views, returning the alignment stats. Without an
// autopilot it is exactly FlushUpdates.
func (e *Engine) Sync() (UpdateStats, error) {
	return e.FlushUpdates()
}

// pilotTarget adapts the Engine to the autopilot.Target interface. Every
// method takes the engine lock itself; the pilot never holds an engine
// lock when calling in, so the drain mutex strictly precedes the engine
// lock in the lock order.
type pilotTarget struct{ e *Engine }

// ApplyWrites applies a coalesced group of writes under one shared hold
// of the engine lock — the engine-side group commit that turns lone
// fire-and-forget Updates into a single acquisition.
func (t pilotTarget) ApplyWrites(ws []autopilot.Write) (err error) {
	e := t.e
	e.journalDutyBegin(obs.DutyApply)
	defer func() { e.journalDutyEnd(obs.DutyApply, int64(len(ws)), err) }()
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, w := range ws {
		if err := e.applyWrite(w.Row, w.Value); err != nil {
			return err
		}
	}
	return nil
}

// AlignPending runs §2.4 alignment over the applied-but-unaligned
// updates in one exclusive-lock slice.
func (t pilotTarget) AlignPending() error {
	t.e.journalDutyBegin(obs.DutyAlign)
	st, err := t.e.flushApplied()
	t.e.journalDutyEnd(obs.DutyAlign, int64(st.NetUpdates), err)
	return err
}

// ViewTemperatures snapshots the LRU clock and every partial view's
// recency, frequency, size and page-order fragmentation under the shared
// engine lock, which keeps set membership and page sets fixed
// (temperature reads are concurrent-reader safe; fragmentation walks the
// view's soft-TLB, a pure read).
func (t pilotTarget) ViewTemperatures() (uint64, []autopilot.ViewTemp) {
	e := t.e
	e.mu.RLock()
	defer e.mu.RUnlock()
	clock := e.set.Clock()
	temps := e.set.Temperatures()
	out := make([]autopilot.ViewTemp, 0, len(temps))
	for _, tp := range temps {
		vt := autopilot.ViewTemp{
			Handle:   tp.View,
			LastUsed: tp.LastUsed,
			Uses:     tp.Uses,
			Pages:    tp.View.NumPages(),
			Pinned:   tp.View.Pinned(),
		}
		if frag, err := viewFragmentation(tp.View); err == nil {
			vt.Frag = frag
		}
		out = append(out, vt)
	}
	return clock, out
}

// viewFragmentation measures how far a view's mapped pages have drifted
// from ascending physical order: the fraction of adjacent slot pairs that
// step backwards. Freshly created views map qualifying pages in scan
// order (ascending) and score 0; update alignment appends out-of-order
// pages at the end and compaction moves tail pages into holes, so the
// score grows with churn — and a rebuild resets it, restoring the long
// consecutive runs the §2.3 mapping optimization (and hardware
// prefetching) feeds on.
func viewFragmentation(v *view.View) (float64, error) {
	n := v.NumPages()
	if n < 2 {
		return 0, nil
	}
	ids, err := v.PageIDs()
	if err != nil {
		return 0, err
	}
	backward := 0
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			backward++
		}
	}
	return float64(backward) / float64(n-1), nil
}

// EvictViews releases the given cold views in one exclusive-lock slice.
// Handles whose view left the set since the temperature snapshot
// (replaced by a superset candidate, rebuilt) are skipped — the pilot's
// view of the set is advisory, membership is re-validated here.
func (t pilotTarget) EvictViews(handles []any) (int, error) {
	e := t.e
	e.journalDutyBegin(obs.DutyEvict)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		e.journalDutyEnd(obs.DutyEvict, 0, nil)
		return 0, nil
	}
	evicted := 0
	var firstErr error
	for _, h := range handles {
		v, ok := h.(*view.View)
		if !ok || !e.set.Remove(v) {
			continue
		}
		e.journalViewEvent(obs.EvViewExpired, v.Lo(), v.Hi())
		// Drops the set's owner reference; a pinned epoch still routing
		// to the view keeps it mapped until that state drains.
		if err := v.Release(); err != nil && firstErr == nil {
			firstErr = err
		}
		e.stats.viewsExpired.Add(1)
		evicted++
	}
	if evicted > 0 {
		e.publishStateLocked()
	}
	e.journalDutyEnd(obs.DutyEvict, int64(evicted), firstErr)
	return evicted, firstErr
}

// RebuildView rebuilds one fragmented view from the column's current
// contents in its own exclusive-lock slice (rebuildLocked: build, swap,
// then release — a failed build leaves the old view serving). Releasing
// the lock between slices lets writers interleave with a multi-view
// maintenance sweep.
func (t pilotTarget) RebuildView(h any) (rebuilt bool, err error) {
	e := t.e
	e.journalDutyBegin(obs.DutyRebuild)
	defer func() {
		work := int64(0)
		if rebuilt {
			work = 1
		}
		e.journalDutyEnd(obs.DutyRebuild, work, err)
	}()
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := h.(*view.View)
	if !ok || e.closed || !e.set.Contains(v) {
		return false, nil
	}
	rebuilt, err = e.rebuildLocked([]*view.View{v}, false)
	if rebuilt {
		e.stats.viewsRebuilt.Add(1)
		e.journalViewEvent(obs.EvViewRebuilt, v.Lo(), v.Hi())
	}
	return rebuilt, err
}

// TierInfo snapshots the column tier's hot occupancy for the pilot's
// demotion duty; ok is false on a single-tier engine (the pilot then
// never runs that duty).
func (t pilotTarget) TierInfo() (autopilot.TierInfo, bool) {
	tier := t.e.tier
	if tier == nil {
		return autopilot.TierInfo{}, false
	}
	s := tier.Stats()
	return autopilot.TierInfo{HotFrames: s.HotFrames, HotBudget: s.HotBudget}, true
}

// DemotePages demotes pages of the given views (the pilot passes them
// coldest-first) until maxPages pages moved tier-down. Demotion only
// CASes tier words, so the shared engine lock suffices: it keeps set
// membership and view lifetimes stable, and writers holding it too
// promote written pages by CAS on the same words. An epoch reader racing
// a demotion revalidates through the versioned word and retries; it
// never blocks. Pinned views, the full view and handles that left the
// set are skipped.
func (t pilotTarget) DemotePages(handles []any, maxPages int) (int, error) {
	e := t.e
	if e.tier == nil || maxPages <= 0 {
		return 0, nil
	}
	e.journalDutyBegin(obs.DutyDemote)
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		e.journalDutyEnd(obs.DutyDemote, 0, nil)
		return 0, nil
	}
	demoted := 0
	var firstErr error
	for _, h := range handles {
		if demoted >= maxPages {
			break
		}
		v, ok := h.(*view.View)
		if !ok || v.Pinned() || v.Full() || !e.set.Contains(v) {
			continue
		}
		ids, err := v.PageIDs()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for _, id := range ids {
			if demoted >= maxPages {
				break
			}
			if e.tier.Demote(int(id)) {
				demoted++
			}
		}
	}
	if demoted > 0 && e.journal != nil {
		e.journal.Record(obs.EvTierDemoteBatch, int64(demoted), int64(maxPages), 0)
	}
	e.journalDutyEnd(obs.DutyDemote, int64(demoted), firstErr)
	return demoted, firstErr
}
