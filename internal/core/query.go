package core

import (
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/viewset"
)

// QueryResult reports the answer to a range query together with the
// routing and adaptivity telemetry the paper's figures plot (scanned
// pages, Fig. 4; considered views, Fig. 5).
type QueryResult struct {
	Count int    // qualifying values
	Sum   uint64 // wrapping sum of qualifying values

	PagesScanned int  // physical pages read
	ViewsUsed    int  // views routed to
	UsedFullView bool // whether the full view was among them

	// CandidateBuilt reports whether a candidate view was constructed
	// alongside this query; Decision is what became of it.
	CandidateBuilt bool
	Decision       viewset.Decision
}

// applyDecision performs the side effects of a retention decision:
// releasing discarded candidates and displaced views, and updating
// counters. A displaced view left the live set with the state that
// published the decision: readers admitted later route the new capture,
// and every older state that can still route to it holds its own
// reference, so the release here only drops the set's owner reference —
// the unmap happens when the last pinned epoch drains.
func (e *Engine) applyDecision(dec viewset.Decision, cand, displaced *view.View) {
	switch dec {
	case viewset.Inserted:
		e.stats.viewsCreated.Add(1)
		e.journalViewEvent(obs.EvViewInserted, cand.Lo(), cand.Hi())
	case viewset.Replaced:
		e.stats.viewsReplaced.Add(1)
		e.journalViewEvent(obs.EvViewReplaced, cand.Lo(), cand.Hi())
		displaced.Release()
	default:
		e.stats.viewsDiscarded.Add(1)
		e.journalViewEvent(obs.EvViewDiscarded, cand.Lo(), cand.Hi())
		cand.Release()
	}
}

// publishCandidate takes the engine lock exclusively and runs the retention
// decision for a candidate built during a pinned-state scan that observed
// generation gen. Between the scan and this call an update alignment,
// rebuild or close may have run, in which case the candidate's page set
// is stale — alignment only walks set members, so publishing it now would
// install a view no flush will ever repair — or the set is gone entirely
// (Close must not regrow, and must not leak, late candidates). Such
// candidates are reported DiscardedStale for the caller to release
// instead of being published. A decision that mutates the set publishes
// the successor state, making the new view routable by later readers.
func (e *Engine) publishCandidate(cand *view.View, gen uint64) (viewset.Decision, *view.View) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.gen != gen {
		return viewset.DiscardedStale, nil
	}
	dec, displaced := e.set.Consider(cand)
	switch dec {
	case viewset.DiscardedLimit, viewset.Inserted, viewset.Replaced:
		// A new member, or the set just froze — a set-state transition
		// readers must observe, or every later query would keep building
		// (and discarding) candidates.
		e.publishStateLocked()
	}
	return dec, displaced
}
