// Package viewset maintains the set of virtual views of a column and
// implements the paper's query routing (§2.1) and view retention policy
// (§2.2, Listing 1 lines 21–32).
//
// The set always contains the full view v[-inf,inf]; partial views are
// suggested by the adaptive engine after each query and are inserted,
// replace an existing view, or are discarded according to the subset /
// superset rules with the user-set discard tolerance d and replacement
// tolerance r.
//
// Concurrency contract: queries route over an immutable Snapshot of the
// set (snapshot.go), never over the live set. The live read side — Full,
// Partials, Len, Frozen, Clock, Temperatures — is safe for any number of
// concurrent callers (the LRU clock is atomic, the usage map has its own
// lock, and the partial-view slice is copy-on-write). The write side —
// Consider, Insert, Remove, ReplaceExisting, Contains, Clear — must be
// externally serialized against both readers and other writers; the
// adaptive engine holds its write lock around every call.
package viewset

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/asv-db/asv/internal/view"
)

// Decision is the outcome of suggesting a candidate view to the set.
type Decision int

const (
	// DecisionNone is the zero value: no candidate was considered at all.
	// Queries that never build a candidate (non-adaptive engines, frozen
	// sets, closed engines) report DecisionNone, so telemetry that
	// forgets to check QueryResult.CandidateBuilt reads "none" instead of
	// a phantom "inserted".
	DecisionNone Decision = iota
	// Inserted: the candidate became a new partial view.
	Inserted
	// Replaced: the candidate replaced an existing partial view whose
	// range it covers at similar cost (Listing 1 lines 28–31).
	Replaced
	// DiscardedNotSmaller: the candidate indexes at least as many pages as
	// the full view, so it cannot beat a full scan (line 22).
	DiscardedNotSmaller
	// DiscardedSubset: the candidate covers a subset of an existing view
	// while indexing a similar number of pages (lines 24–27).
	DiscardedSubset
	// DiscardedLimit: the maximum number of views is reached; the set
	// freezes and no further candidates will be generated (§2.2).
	DiscardedLimit
	// DiscardedStale: the engine invalidated the candidate before it
	// could be published — an update alignment, view rebuild or engine
	// close ran between the read-locked scan that built it and the
	// write-locked retention decision, so its page set no longer reflects
	// the column.
	DiscardedStale
)

// String renders the decision for logs and reports.
func (d Decision) String() string {
	switch d {
	case DecisionNone:
		return "none"
	case Inserted:
		return "inserted"
	case Replaced:
		return "replaced"
	case DiscardedNotSmaller:
		return "discarded(not-smaller-than-full)"
	case DiscardedSubset:
		return "discarded(subset-of-existing)"
	case DiscardedLimit:
		return "discarded(view-limit)"
	case DiscardedStale:
		return "discarded(stale-candidate)"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Set is the view index of one column.
type Set struct {
	full *view.View
	// partials is copy-on-write: every mutation installs a freshly built
	// slice, never writing an element a concurrent reader could hold. A
	// routing pass captures the header once and works on an immutable
	// snapshot.
	partials   []*view.View
	maxViews   int
	discardTol int // d: pages of slack when discarding subsets
	replaceTol int // r: pages of slack when replacing supersets
	frozen     bool

	clock atomic.Uint64 // logical routing clock for LRU

	lruMu sync.Mutex           // guards usage (touched by concurrent routers)
	usage map[*view.View]usage // routing recency/frequency per partial view

	releaseHook func(*view.View) error // test seam: retired-capture release
}

// usage is one partial view's temperature record: the routing tick of its
// most recent hit and its total hit count, both advanced by touch. The
// autopilot's view lifecycle reads them through Temperatures.
type usage struct {
	last uint64 // routing tick of the most recent hit
	uses uint64 // total routing hits
}

// New creates a set holding the column's full view. maxViews bounds the
// number of partial views; discardTol and replaceTol are the paper's d and
// r (both 0 in all paper experiments, §3). Reaching maxViews freezes the
// set (§2.2).
func New(full *view.View, maxViews, discardTol, replaceTol int) *Set {
	if maxViews < 0 {
		maxViews = 0
	}
	return &Set{
		full:       full,
		maxViews:   maxViews,
		discardTol: discardTol,
		replaceTol: replaceTol,
		usage:      make(map[*view.View]usage),
	}
}

// Partials returns a snapshot of the current partial views. The returned
// slice is the caller's to keep: mutations never write a published slice
// in place.
func (s *Set) Partials() []*view.View {
	ps := s.partials
	out := make([]*view.View, len(ps))
	copy(out, ps)
	return out
}

// Len returns the number of partial views.
func (s *Set) Len() int { return len(s.partials) }

// Frozen reports whether the view limit was hit, which stops all further
// candidate generation: "If the limit has been reached already, we stop
// the generation of new partial views altogether" (§2.2).
func (s *Set) Frozen() bool { return s.frozen }

// replaceAt installs cand in place of the view at index i, copy-on-write.
func (s *Set) replaceAt(i int, cand *view.View) {
	next := make([]*view.View, len(s.partials))
	copy(next, s.partials)
	next[i] = cand
	s.partials = next
}

// Consider runs the retention decision of Listing 1 (lines 21–32) for a
// finished candidate view. It returns the decision and, for Replaced, the
// displaced view — the caller is responsible for releasing the candidate
// on any Discarded* decision and the displaced view on Replaced. Consider
// is a write operation (see the package concurrency contract).
func (s *Set) Consider(cand *view.View) (Decision, *view.View) {
	if cand.NumPages() >= s.full.NumPages() {
		return DiscardedNotSmaller, nil
	}
	for i, pv := range s.partials {
		if cand.CoversSubsetOf(pv) && cand.NumPages() >= pv.NumPages()-s.discardTol {
			// Smaller range at similar cost: less useful than what exists.
			return DiscardedSubset, nil
		}
		if cand.CoversSupersetOf(pv) && cand.NumPages() <= pv.NumPages()+s.replaceTol {
			// Wider range at similar cost: strictly more useful. The
			// candidate inherits the displaced view's temperature — it
			// serves the same (and more) queries.
			old := pv
			s.replaceAt(i, cand)
			s.lruMu.Lock()
			s.usage[cand] = s.usage[old]
			delete(s.usage, old)
			s.lruMu.Unlock()
			return Replaced, old
		}
	}
	if len(s.partials) >= s.maxViews {
		s.frozen = true
		return DiscardedLimit, nil
	}
	next := make([]*view.View, len(s.partials), len(s.partials)+1)
	copy(next, s.partials)
	s.partials = append(next, cand)
	s.lruMu.Lock()
	s.usage[cand] = usage{last: s.clock.Load()}
	s.lruMu.Unlock()
	return Inserted, nil
}

// Insert adds a view unconditionally (used by explicit creation, which
// experiment setup uses to create views directly, §3.1/§3.4). It fails once maxViews is
// reached. The view starts with the current clock as its recency, like an
// adaptively inserted candidate — a pre-created view must not look
// never-used (and therefore cold) to the temperature export. Insert is a
// write operation.
func (s *Set) Insert(v *view.View) error {
	if len(s.partials) >= s.maxViews {
		return fmt.Errorf("viewset: view limit %d reached", s.maxViews)
	}
	next := make([]*view.View, len(s.partials), len(s.partials)+1)
	copy(next, s.partials)
	s.partials = append(next, v)
	s.lruMu.Lock()
	s.usage[v] = usage{last: s.clock.Load()}
	s.lruMu.Unlock()
	return nil
}

// Remove deletes a partial view from the set (the caller releases it) and
// unfreezes the set: eviction reopens capacity, so candidate generation
// resumes — the point of the temperature-driven lifecycle. It returns
// false when v is not a member. Remove is a write operation.
func (s *Set) Remove(v *view.View) bool {
	for i, pv := range s.partials {
		if pv != v {
			continue
		}
		next := make([]*view.View, 0, len(s.partials)-1)
		next = append(next, s.partials[:i]...)
		next = append(next, s.partials[i+1:]...)
		s.partials = next
		s.frozen = false
		s.lruMu.Lock()
		delete(s.usage, v)
		s.lruMu.Unlock()
		return true
	}
	return false
}

// Contains reports whether v is currently a partial-view member. Contains
// is a write-side operation (callers hold the engine lock exclusively).
func (s *Set) Contains(v *view.View) bool {
	for _, pv := range s.partials {
		if pv == v {
			return true
		}
	}
	return false
}

// ReplaceExisting installs repl in old's slot, transferring old's
// temperature (a rebuilt view serves the same range, so its history
// carries over). It returns false when old is not a member.
// ReplaceExisting is a write operation.
func (s *Set) ReplaceExisting(old, repl *view.View) bool {
	for i, pv := range s.partials {
		if pv != old {
			continue
		}
		s.replaceAt(i, repl)
		s.lruMu.Lock()
		s.usage[repl] = s.usage[old]
		delete(s.usage, old)
		s.lruMu.Unlock()
		return true
	}
	return false
}

// Clear removes and returns all partial views (the caller releases them)
// and unfreezes the set. Used when the engine closes. Clear is a write
// operation.
func (s *Set) Clear() []*view.View {
	out := s.partials
	s.partials = nil
	s.frozen = false
	s.lruMu.Lock()
	s.usage = make(map[*view.View]usage)
	s.lruMu.Unlock()
	return out
}

// Clock returns the current routing tick of the LRU clock. Ages derived
// from it are in "queries routed" units, which makes temperature
// thresholds deterministic and load-independent.
func (s *Set) Clock() uint64 { return s.clock.Load() }

// Temperature is one partial view's access recency/frequency, exported
// for the autopilot's temperature-driven lifecycle.
type Temperature struct {
	View     *view.View
	LastUsed uint64 // routing tick of the most recent hit (insertion tick if never routed)
	Uses     uint64 // total routing hits
}

// Temperatures snapshots every partial view's temperature. Like the rest
// of the read side it is safe for concurrent callers: the partial slice
// is an immutable snapshot and the usage map has its own lock.
func (s *Set) Temperatures() []Temperature {
	ps := s.partials // immutable snapshot
	out := make([]Temperature, 0, len(ps))
	s.lruMu.Lock()
	for _, v := range ps {
		u := s.usage[v]
		out = append(out, Temperature{View: v, LastUsed: u.last, Uses: u.uses})
	}
	s.lruMu.Unlock()
	return out
}
