package viewset

import (
	"sort"
	"sync/atomic"

	"github.com/asv-db/asv/internal/view"
)

// This file is the snapshot/retire surface of the view set: an immutable
// capture of the routed state that the engine publishes behind an atomic
// pointer. Routing over a Snapshot reads only captured ranges, page
// counts and resolved page slices — never live view fields — so any
// number of epoch readers may route and scan while the live set is
// mutated, rebuilt or cleared under the engine lock's exclusive mode.
//
// Successive snapshots are structural deltas over their parent: the
// capture is a chunked copy-on-write table of SnapView entries, and a
// publication re-captures only the views touched (MarkDirty) or added
// since the previous capture — every untouched chunk of snapChunkSize
// entries is shared with the parent by bumping one reference. Capture
// cost therefore scales with the number of touched views plus the
// (pointer-sized) spine walk, not with the total view count, which is
// what keeps publication flat at thousands-of-views scale. Retirement
// follows the shared structure: a snapshot releases its chunk
// references; a chunk that drains releases its entries' references; a
// SnapView that drains releases the one view retain it owns. The set
// itself keeps one reference per chunk of the most recent capture (the
// delta cache), dropped when the next capture supersedes it or when
// ResetCaptureCache clears it.

// snapChunkSize is the arity of one capture-table chunk. Larger chunks
// shrink the per-publication spine walk; smaller chunks shrink the
// re-capture amplification when one view in a chunk is touched.
const snapChunkSize = 128

// SnapView is one view as captured by a Snapshot: the covered range, the
// resolved pages (or, for a demand-materialized view, the backing file
// page per slot resolved against the capture's frozen full-view pages),
// and the identity of the live view it was taken from. A SnapView may be
// shared by any number of chunks across consecutive snapshots; refs
// counts them, and the drain releases the single view retain the capture
// owns. Entries are immutable once captured: every field except refs is
// written only by the capture path in this file.
//
//asv:immutable
type SnapView struct {
	view   *view.View
	lo, hi uint64
	pages  [][]byte // eager capture; nil for a lazy capture
	file   []int32  // lazy capture: slot → backing file page
	fullPg [][]byte // lazy capture: the capture's frozen full-view pages
	full   bool
	refs   atomic.Int32 // chunks referencing this capture
}

// View returns the captured view's identity. Callers must not read live
// view fields through it on the read path — that is what the captured
// accessors are for.
func (sv *SnapView) View() *view.View { return sv.view }

// Lo returns the captured lower bound of the covered range (inclusive).
func (sv *SnapView) Lo() uint64 { return sv.lo }

// Hi returns the captured upper bound of the covered range (inclusive).
func (sv *SnapView) Hi() uint64 { return sv.hi }

// NumPages returns the captured number of indexed physical pages.
func (sv *SnapView) NumPages() int {
	if sv.pages != nil {
		return len(sv.pages)
	}
	return len(sv.file)
}

// Full reports whether this is the column's full view.
func (sv *SnapView) Full() bool { return sv.full }

// Lazy reports whether the capture resolves pages through the full-view
// indirection instead of an eager page array.
func (sv *SnapView) Lazy() bool { return sv.pages == nil }

// Covers reports whether the captured range fully contains [lo, hi].
func (sv *SnapView) Covers(lo, hi uint64) bool { return sv.lo <= lo && hi <= sv.hi }

// PageBytes returns the i-th captured page. The slice aliases the frozen
// physical frame the capture resolved — concurrent writers shadow pages
// onto fresh frames, so the bytes never change under the reader. A lazy
// capture resolves through the capture's full-view pages: the slot's
// backing file page was recorded at capture time, and the full-view
// capture froze every file page's frame at the same instant, so the
// indirection serves exactly the epoch's bytes without ever
// materializing the live view's mapping.
func (sv *SnapView) PageBytes(i int) []byte {
	if sv.pages != nil {
		return sv.pages[i]
	}
	return sv.fullPg[sv.file[i]]
}

// snapChunk is one fixed-arity block of the capture table, shared
// copy-on-write between consecutive snapshots. refs counts the
// snapshots (plus the set's delta cache) referencing the chunk. A
// chunk's entries are sealed by the capture path in this file before
// the chunk becomes visible to a second snapshot.
//
//asv:immutable
type snapChunk struct {
	entries []*SnapView
	refs    atomic.Int32
}

func (c *snapChunk) retain() { c.refs.Add(1) }

// release drops one chunk reference; the drop that drains the chunk
// releases every entry (and, transitively, the view retains of entries
// whose last chunk this was). The first error is returned, the walk
// continues — a failed unmap must not leak the remaining references.
func (c *snapChunk) release(s *Set) error {
	if c.refs.Add(-1) != 0 {
		return nil
	}
	var firstErr error
	for _, sv := range c.entries {
		if err := s.releaseSnapView(sv); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// releaseSnapView drops one chunk's reference on a captured view and, on
// drain, releases the single view retain the capture owns.
func (s *Set) releaseSnapView(sv *SnapView) error {
	if sv.refs.Add(-1) != 0 {
		return nil
	}
	if s.releaseHook != nil {
		return s.releaseHook(sv.view)
	}
	return sv.view.Release()
}

// Snapshot is an immutable capture of the set's routed state. The
// capture owns one reference per chunk; ReleaseViews drops them when the
// state the snapshot belongs to drains.
type Snapshot struct {
	set    *Set
	full   *SnapView
	chunks []*snapChunk
	n      int // total captured partial views
	// recaptured counts the views captured fresh by this snapshot (new
	// or dirty since the parent) — the per-publication work the delta
	// design keeps small; telemetry reports it as the publication size.
	recaptured int
	frozen     bool
}

// Snapshot captures the current routed state as a structural delta over
// the previous capture. fullPages is the column's captured full-view
// soft-TLB (storage.Column.CaptureSnapshot) — the set's own full view
// caches translations that go stale under the copy-on-write write path,
// so the column capture is authoritative; it also serves as the
// resolution target for lazily captured views. Snapshot is a write-side
// operation (the engine holds its lock exclusively). Only views that are
// new or marked dirty since the previous capture are re-captured;
// untouched chunks are shared with the parent. On error every reference
// the half-built capture took is released and the delta cache is left
// untouched, so a retry (or the next publication) starts from the same
// consistent parent — capture and retain stay symmetric on all paths.
func (s *Set) Snapshot(fullPages [][]byte) (*Snapshot, error) {
	full := &SnapView{
		view: s.full, lo: 0, hi: ^uint64(0),
		pages: fullPages, full: true,
	}
	n := len(s.partials)
	nc := (n + snapChunkSize - 1) / snapChunkSize
	chunks := make([]*snapChunk, 0, nc)
	recaptured := 0
	var err error
outer:
	for ci := 0; ci < nc; ci++ {
		base := ci * snapChunkSize
		end := base + snapChunkSize
		if end > n {
			end = n
		}
		group := s.partials[base:end]
		if ch := s.reusableChunk(ci, base, group); ch != nil {
			ch.retain()
			chunks = append(chunks, ch)
			continue
		}
		ch := &snapChunk{entries: make([]*SnapView, 0, len(group))}
		ch.refs.Store(1)
		chunks = append(chunks, ch)
		for _, v := range group {
			sv := s.capBy[v]
			if sv == nil || s.isDirty(v) {
				sv, err = s.captureView(v, fullPages)
				if err != nil {
					break outer
				}
				recaptured++
			}
			sv.refs.Add(1)
			ch.entries = append(ch.entries, sv)
		}
	}
	if err != nil {
		// Symmetric unwind: every chunk appended so far — reused or
		// half-built — holds exactly the references taken above.
		for _, ch := range chunks {
			_ = ch.release(s) //asv:ignore-err unwinding a half-built capture; the capture error is returned and a retry starts clean
		}
		return nil, err
	}
	snap := &Snapshot{set: s, full: full, chunks: chunks, n: n, recaptured: recaptured, frozen: s.frozen}
	s.refreshCaptureCache(chunks)
	return snap, nil
}

// reusableChunk returns the delta cache's chunk ci when the ci-th group
// of the current partials is identical to what that chunk captured (same
// views, same order, none dirty), nil otherwise.
func (s *Set) reusableChunk(ci, base int, group []*view.View) *snapChunk {
	if ci >= len(s.capChunks) {
		return nil
	}
	ch := s.capChunks[ci]
	if len(ch.entries) != len(group) {
		return nil
	}
	for k, v := range group {
		if base+k >= len(s.capViews) || s.capViews[base+k] != v || s.isDirty(v) {
			return nil
		}
	}
	return ch
}

// captureView captures one view fresh, taking the view retain the
// returned SnapView owns. Demand-materialized views are captured through
// their slot directory — O(slots) pointer work, no mapping, no page
// resolution — and resolve against the capture's full-view pages.
func (s *Set) captureView(v *view.View, fullPages [][]byte) (*SnapView, error) {
	sv := &SnapView{view: v, lo: v.Lo(), hi: v.Hi()}
	if s.captureHook != nil {
		pages, err := s.captureHook(v)
		if err != nil {
			return nil, err
		}
		sv.pages = pages
	} else if f := v.LazyFilePages(); f != nil {
		sv.file = append([]int32(nil), f...)
		sv.fullPg = fullPages
	} else {
		pages, err := v.CapturePages()
		if err != nil {
			return nil, err
		}
		sv.pages = pages
	}
	v.Retain() //asv:handoff the retain is owned by the SnapView; the chunk drain releases it
	return sv, nil
}

// isDirty reports whether v was marked touched since its last capture.
func (s *Set) isDirty(v *view.View) bool {
	s.dirtyMu.Lock()
	_, ok := s.capDirty[v]
	s.dirtyMu.Unlock()
	return ok
}

// MarkDirty records that a live view's captured state (range, page set
// or resolved translations) changed since the last capture, so the next
// Snapshot re-captures it instead of sharing the parent's entry. Update
// alignment marks every view it rewires; the autopilot marks views it
// warms. Views not yet captured are implicitly dirty. Safe for
// concurrent callers.
func (s *Set) MarkDirty(v *view.View) {
	if v == nil || v.Full() {
		return
	}
	s.dirtyMu.Lock()
	s.capDirty[v] = struct{}{}
	s.dirtyMu.Unlock()
}

// refreshCaptureCache installs chunks as the delta cache for the next
// capture: the set takes one reference per new chunk, drops the previous
// cache's references, rebuilds the per-view index and clears the dirty
// marks (everything present is freshly consistent). A release error
// while dropping the previous cache cannot fail the capture that is
// already built, so it is parked for TakeReleaseErr instead of dropped.
func (s *Set) refreshCaptureCache(chunks []*snapChunk) {
	for _, ch := range chunks {
		ch.retain()
	}
	old := s.capChunks
	s.capChunks = append([]*snapChunk(nil), chunks...)
	s.capViews = append([]*view.View(nil), s.partials...)
	by := make(map[*view.View]*SnapView, len(s.partials))
	for _, ch := range chunks {
		for _, sv := range ch.entries {
			by[sv.view] = sv
		}
	}
	s.capBy = by
	s.dirtyMu.Lock()
	s.capDirty = make(map[*view.View]struct{})
	s.dirtyMu.Unlock()
	for _, ch := range old {
		if err := ch.release(s); err != nil && s.releaseErr == nil {
			s.releaseErr = err
		}
	}
}

// TakeReleaseErr returns and clears the first release error parked by a
// cache refresh. The engine drains it after every capture and folds it
// into the retire-error accounting — the drop that failed was retiring
// a superseded capture's view, the same class the reclaim walk counts.
func (s *Set) TakeReleaseErr() error {
	err := s.releaseErr
	s.releaseErr = nil
	return err
}

// ResetCaptureCache drops the delta cache: the set's chunk references
// are released and the next Snapshot captures every view fresh. The
// engine calls it on Close so a failed final publication cannot strand
// the cache's view retains; tests use it to force a full (non-delta)
// capture for equivalence checks. The first release error is returned.
func (s *Set) ResetCaptureCache() error {
	var firstErr error
	for _, ch := range s.capChunks {
		if err := ch.release(s); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.capChunks = nil
	s.capViews = nil
	s.capBy = make(map[*view.View]*SnapView)
	s.dirtyMu.Lock()
	s.capDirty = make(map[*view.View]struct{})
	s.dirtyMu.Unlock()
	return firstErr
}

// SetCaptureHook intercepts per-view page capture (test instrumentation:
// fault injection on the publication path). The hook replaces both the
// eager and the lazy capture for every fresh capture; nil restores the
// real operations.
func (s *Set) SetCaptureHook(fn func(*view.View) ([][]byte, error)) { s.captureHook = fn }

// SetReleaseViewHook intercepts the view release performed when a
// captured view's last reference drains (test instrumentation: fault
// injection on the retirement path). Nil restores the real release.
func (s *Set) SetReleaseViewHook(fn func(*view.View) error) { s.releaseHook = fn }

// ReleaseViews drops the snapshot's chunk references — the retire step
// once the owning engine state has drained. A view whose last capture
// reference this was is unmapped here, which is how a view evicted from
// the live set outlives every pinned reader that can still route to it,
// and no longer.
func (s *Snapshot) ReleaseViews() error {
	chunks := s.chunks
	s.chunks = nil
	var firstErr error
	for _, ch := range chunks {
		if err := ch.release(s.set); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Full returns the captured full view.
func (s *Snapshot) Full() *SnapView { return s.full }

// eachPartial walks the captured partial views in set order; fn
// returning false stops the walk.
func (s *Snapshot) eachPartial(fn func(*SnapView) bool) {
	for _, ch := range s.chunks {
		for _, sv := range ch.entries {
			if !fn(sv) {
				return
			}
		}
	}
}

// Partials returns the captured partial views in set order (a fresh
// slice the caller may keep).
func (s *Snapshot) Partials() []*SnapView {
	out := make([]*SnapView, 0, s.n)
	s.eachPartial(func(sv *SnapView) bool {
		out = append(out, sv)
		return true
	})
	return out
}

// Chunks returns the number of capture-table chunks (tests use it to
// observe structural sharing).
func (s *Snapshot) Chunks() int { return len(s.chunks) }

// Len returns the number of captured partial views.
func (s *Snapshot) Len() int { return s.n }

// Recaptured returns the number of views this capture re-captured fresh
// instead of sharing with its parent — the publication's real size.
func (s *Snapshot) Recaptured() int { return s.recaptured }

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
	s.eachPartial(func(sv *SnapView) bool {
		if sv.Covers(lo, hi) && sv.NumPages() < best.NumPages() {
			best = sv
		}
		return true
	})
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
		s.eachPartial(func(sv *SnapView) bool {
			if sv.lo <= c && c <= sv.hi {
				if best == nil || sv.NumPages() < best.NumPages() ||
					(sv.NumPages() == best.NumPages() && sv.hi > best.hi) {
					best = sv
				}
			}
			return true
		})
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
