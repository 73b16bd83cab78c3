package viewset

import (
	"sort"

	"github.com/asv-db/asv/internal/view"
)

// This file is the snapshot/retire surface of the view set: an immutable
// capture of the routed state that the engine publishes behind an atomic
// pointer. Routing over a Snapshot reads only captured ranges, page
// counts and resolved page slices — never live view fields — so any
// number of epoch readers may route and scan while the live set is
// mutated, rebuilt or cleared under the engine lock's exclusive mode.
//
// Every publication captures the whole set afresh: one SnapView and one
// view retain per partial view. A capture copies no page data — an eager
// view's soft-TLB array and a lazy view's slot directory are shared as
// they are, because neither is ever written in place once a capture may
// hold it — so the cost is a few pointer writes per view. Retirement is
// symmetric: a snapshot releases each captured view once.

// SnapView is one view as captured by a Snapshot: the covered range, the
// resolved pages (or, for a lazy view, the backing file page per slot
// resolved against the capture's frozen full-view pages),
// and the identity of the live view it was taken from. Each SnapView
// belongs to exactly one Snapshot and owns one retain on its view, which
// the snapshot's ReleaseViews drops. Entries are immutable once
// captured: every field is written only by the capture path in this file.
//
//asv:immutable
type SnapView struct {
	view   *view.View
	lo, hi uint64
	// pages is the eager capture's page per slot or, for a lazy capture,
	// the capture's frozen full-view pages, indexed through file.
	pages [][]byte
	file  []int32 // lazy capture: slot → backing file page; nil when eager
	full  bool
}

// Lo returns the captured lower bound of the covered range (inclusive).
func (sv *SnapView) Lo() uint64 { return sv.lo }

// Hi returns the captured upper bound of the covered range (inclusive).
func (sv *SnapView) Hi() uint64 { return sv.hi }

// NumPages returns the captured number of indexed physical pages.
func (sv *SnapView) NumPages() int {
	if sv.file != nil {
		return len(sv.file)
	}
	return len(sv.pages)
}

// Full reports whether this is the column's full view.
func (sv *SnapView) Full() bool { return sv.full }

// Lazy reports whether the capture resolves pages through the full-view
// indirection instead of an eager page array.
func (sv *SnapView) Lazy() bool { return sv.file != nil }

// Covers reports whether the captured range fully contains [lo, hi].
func (sv *SnapView) Covers(lo, hi uint64) bool { return sv.lo <= lo && hi <= sv.hi }

// PageBytes returns the i-th captured page. The slice aliases the frozen
// physical frame the capture resolved — concurrent writers shadow pages
// onto fresh frames, so the bytes never change under the reader. A lazy
// capture resolves through the capture's full-view pages: the slot's
// backing file page was recorded at capture time, and the full-view
// capture froze every file page's frame at the same instant, so the
// indirection serves exactly the epoch's bytes without ever mapping the
// live view.
func (sv *SnapView) PageBytes(i int) []byte {
	if sv.file != nil {
		return sv.pages[sv.file[i]]
	}
	return sv.pages[i]
}

// Snapshot is an immutable capture of the set's routed state. The
// capture owns one view retain per partial; ReleaseViews drops them when
// the state the snapshot belongs to drains.
type Snapshot struct {
	set      *Set
	full     *SnapView
	partials []*SnapView
	frozen   bool
}

// Snapshot captures the current routed state. fullPages is the column's
// captured full-view soft-TLB (storage.Column.CaptureSnapshot) — the
// set's own full view caches translations that go stale under the
// copy-on-write write path, so the column capture is authoritative; it
// also serves as the resolution target for lazily captured views.
// Snapshot is a write-side operation (the engine holds its lock
// exclusively). It cannot fail: a capture only shares pointers.
func (s *Set) Snapshot(fullPages [][]byte) *Snapshot {
	full := &SnapView{
		view: s.full, lo: 0, hi: ^uint64(0),
		pages: fullPages, full: true,
	}
	snap := &Snapshot{set: s, full: full, partials: make([]*SnapView, len(s.partials)), frozen: s.frozen}
	// One allocation holds every entry; the capture is retired as a whole.
	entries := make([]SnapView, len(s.partials))
	for i, v := range s.partials {
		captureView(&entries[i], v, fullPages)
		snap.partials[i] = &entries[i]
	}
	return snap
}

// captureView captures v into sv, taking the view retain sv owns. A lazy
// view is captured through its slot directory — shared, not copied: no
// mapping, no page resolution — and resolves against the capture's
// full-view pages.
func captureView(sv *SnapView, v *view.View, fullPages [][]byte) {
	sv.view, sv.lo, sv.hi = v, v.Lo(), v.Hi()
	if f := v.LazyFilePages(); f != nil {
		sv.file = f
		sv.pages = fullPages
	} else {
		sv.pages = v.CapturePages()
	}
	v.Retain() //asv:handoff the retain is owned by the SnapView; Snapshot.ReleaseViews releases it
}

// SetReleaseViewHook intercepts the view release performed when a
// snapshot retires (test instrumentation: fault injection on the
// retirement path). Nil restores the real release.
func (s *Set) SetReleaseViewHook(fn func(*view.View) error) { s.releaseHook = fn }

// ReleaseViews drops the snapshot's view retains — the retire step once
// the owning engine state has drained. A view whose last reference this
// was is unmapped here, which is how a view evicted from the live set
// outlives every pinned reader that can still route to it, and no
// longer. The first error is returned; the walk continues, since a
// failed unmap must not leak the remaining references.
func (s *Snapshot) ReleaseViews() error {
	partials := s.partials
	s.partials = nil
	var firstErr error
	for _, sv := range partials {
		var err error
		if s.set.releaseHook != nil {
			err = s.set.releaseHook(sv.view)
		} else {
			err = sv.view.Release()
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Full returns the captured full view.
func (s *Snapshot) Full() *SnapView { return s.full }

// Len returns the number of captured partial views.
func (s *Snapshot) Len() int { return len(s.partials) }

// Frozen reports whether the set had hit its view limit at capture time.
func (s *Snapshot) Frozen() bool { return s.frozen }

// RouteSingle routes [lo, hi] in single-view mode over the capture:
// among the captured views fully covering the range, the one indexing
// the fewest pages (§2.1). The full view always qualifies. Routing hits
// feed the live set's LRU/temperature accounting, so pinned readers keep
// views they use warm.
func (s *Snapshot) RouteSingle(lo, hi uint64) *SnapView {
	tick := s.set.clock.Add(1)
	best := s.full
	for _, sv := range s.partials {
		if sv.Covers(lo, hi) && sv.NumPages() < best.NumPages() {
			best = sv
		}
	}
	s.set.touchLive(best.view, tick)
	return best
}

// RouteMulti routes [lo, hi] in multi-view mode over the capture (§2.1):
// find a set of partial views that fully cover the range in conjunction.
// Following the paper — "the system tries to answer a query using
// multiple views if possible, instead of directing the query to a single
// (potentially larger) view" — the greedy pass repeatedly picks, among
// the captured views covering the first uncovered point, the one
// indexing the fewest pages (furthest reach breaks ties). Pages shared
// between the chosen views are deduplicated by the caller's
// processed-pages bitvector, so a chain of small overlapping views scans
// at most their page union. It returns nil when the captured partials
// cannot cover the range; the caller falls back to RouteSingle.
func (s *Snapshot) RouteMulti(lo, hi uint64) []*SnapView {
	tick := s.set.clock.Add(1)
	var out []*SnapView
	c := lo
	for {
		var best *SnapView
		for _, sv := range s.partials {
			if sv.lo <= c && c <= sv.hi {
				if best == nil || sv.NumPages() < best.NumPages() ||
					(sv.NumPages() == best.NumPages() && sv.hi > best.hi) {
					best = sv
				}
			}
		}
		if best == nil {
			return nil
		}
		out = append(out, best)
		s.set.touchLive(best.view, tick)
		if best.hi >= hi {
			return out
		}
		c = best.hi + 1 // best.hi < hi <= MaxUint64: no overflow
	}
}

// CoveredInterval returns the maximal contiguous value interval
// containing [lo, hi] that the given captured sources cover in
// conjunction. The adaptive engine clamps candidate-range extension to
// this interval: pages outside it were never scanned, so nothing may be
// claimed about them (§2.2). Sources that do not contiguously cover the
// query claim nothing beyond the query itself.
func (s *Snapshot) CoveredInterval(sources []*SnapView, lo, hi uint64) (uint64, uint64) {
	ivs := make([]valueInterval, 0, len(sources))
	for _, sv := range sources {
		ivs = append(ivs, valueInterval{sv.lo, sv.hi})
	}
	return coveredInterval(ivs, lo, hi)
}

// touchLive records a routing hit at the given clock tick for the LRU
// and temperature accounting of a view the live set still tracks. It
// never resurrects an entry: a snapshot may route to a view that was
// evicted from the live set after the capture, and its usage record is
// gone for good.
func (s *Set) touchLive(v *view.View, tick uint64) {
	if v.Full() {
		return
	}
	s.lruMu.Lock()
	if u, ok := s.usage[v]; ok {
		u.uses++
		if tick > u.last {
			u.last = tick
		}
		s.usage[v] = u
	}
	s.lruMu.Unlock()
}

// valueInterval is one captured [lo, hi] range.
type valueInterval struct{ lo, hi uint64 }

// coveredInterval merges overlapping or adjacent intervals and returns
// the merged interval containing [lo, hi], or [lo, hi] itself when the
// sources do not contiguously cover the query.
func coveredInterval(ivs []valueInterval, lo, hi uint64) (uint64, uint64) {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var cur valueInterval
	have := false
	for _, x := range ivs {
		if !have {
			cur, have = x, true
			continue
		}
		adjacent := x.lo <= cur.hi || (cur.hi != ^uint64(0) && x.lo == cur.hi+1)
		if adjacent {
			if x.hi > cur.hi {
				cur.hi = x.hi
			}
			continue
		}
		if cur.lo <= lo && hi <= cur.hi {
			return cur.lo, cur.hi
		}
		cur = x
	}
	if have && cur.lo <= lo && hi <= cur.hi {
		return cur.lo, cur.hi
	}
	return lo, hi
}
