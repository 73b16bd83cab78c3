package core

import (
	"errors"
	"sync/atomic"
	"time"

	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/viewset"
	"github.com/asv-db/asv/internal/vmsim"
)

// errSnapshotClosed is returned by queries on a closed Snapshot handle.
var errSnapshotClosed = errors.New("core: snapshot is closed")

// refcount is a drain-once reference counter: tryAcquire succeeds only
// while the count is positive, so once a release drains it to zero it is
// terminally zero.
type refcount struct{ n atomic.Int64 }

func (r *refcount) init(n int64) { r.n.Store(n) }

func (r *refcount) tryAcquire() bool {
	for {
		c := r.n.Load()
		if c <= 0 {
			return false
		}
		if r.n.CompareAndSwap(c, c+1) {
			return true
		}
	}
}

// release drops one reference and returns the remaining count.
func (r *refcount) release() int64 { return r.n.Add(-1) }

// count returns the current reference count.
func (r *refcount) count() int64 { return r.n.Load() }

// drained reports a terminally-zero count.
func (r *refcount) drained() bool { return r.n.Load() == 0 }

// This file implements the engine's epoch-based read routing: the routed
// read state lives in an immutable engineState published behind an
// atomic pointer. Queries load the pointer, pin the state with one
// atomic increment, route and scan entirely against the capture, and
// never take the engine lock; FlushUpdates, CreateViewsOpt,
// RebuildViews, candidate publication and the autopilot's lifecycle
// duties build a successor state under the exclusive engine lock and
// swap it in. A superseded state is retired — its captured views released, the
// frames its capture froze returned to the allocator — only after its
// epoch drains, in publication order (per-state reference counting plus
// a prefix walk), so a pinned reader can never observe a recycled frame
// or an unmapped view.

// engineState is one published routed-read state. All fields except refs
// are immutable once the state is visible through Engine.state;
// retiredFrames and next are written exactly once, under the exclusive
// engine lock, before the publication reference is dropped — every path that
// can observe them (the reclaim walk) happens-after that drop.
//
//asv:immutable
type engineState struct {
	snap   *viewset.Snapshot
	gen    uint64 // candidate-invalidation generation at publication
	closed bool   // engine was closed when this state was published

	// refs counts the publication reference (1, dropped when a successor
	// is swapped in) plus every pinned reader — in-flight queries and
	// open snapshots. The holder that drops it to zero triggers the
	// reclaim walk; once zero it never rises again (tryAcquire refuses),
	// so a drained state is terminally drained.
	refs refcount

	// retiredFrames are the physical frames displaced by copy-on-write
	// shadows while this state was current. This state's capture — and
	// possibly older captures — still translate to them, so they are
	// freed only when this state and every older one have drained.
	retiredFrames []vmsim.FrameID

	// next is the successor state, set at retirement. The reclaim walk
	// follows it to advance the oldest-state pointer.
	next *engineState

	// publishedAt stamps the publication instant (ns, monotonic-derived
	// wall clock); the reclaim walk reports publish→drain lag from it.
	// Written before the state is stored, like every immutable field.
	publishedAt int64
}

// initState publishes the engine's first state; called from NewEngine
// before the engine is visible to any other goroutine.
func (e *Engine) initState() {
	fullPages, retired := e.col.CaptureSnapshot() //asv:handoff displaced frames park in e.pendingRetired until the reclaim walk frees them
	snap := e.set.Snapshot(fullPages)             //asv:handoff the capture is owned by the published engineState; reclaim releases it
	st := &engineState{snap: snap, publishedAt: time.Now().UnixNano()}
	st.refs.init(1)
	e.state.Store(st)
	e.oldest = st
	// A fresh column has no shadowed frames; tolerate any anyway.
	e.pendingRetired = retired
}

// acquireState pins and returns the current state. The retry loop closes
// the load-then-increment race: a state whose refcount already drained
// refuses the acquire, and the reload observes the successor (the
// publication reference is dropped only after the swap).
func (e *Engine) acquireState() *engineState {
	for {
		st := e.state.Load()
		if st.refs.tryAcquire() {
			return st
		}
	}
}

// releaseState drops one pin; the drop that drains the state runs the
// reclaim walk. During Close, the drop that leaves only the current
// state's publication reference wakes the drain barrier — readers
// pinned to the final state are invisible to the oldest-pointer walk.
func (e *Engine) releaseState(st *engineState) {
	n := st.refs.release()
	if n == 0 {
		e.reclaim()
		return
	}
	if n == 1 && e.closing.Load() && e.state.Load() == st {
		e.stateMu.Lock()
		e.stateCond.Broadcast()
		e.stateMu.Unlock()
	}
}

// publishStateLocked captures the current routed state (view set plus
// resolved soft-TLBs) and swaps it in as the new current state, retiring
// the predecessor. The caller holds the engine lock exclusively —
// captures read live view and column state. Every exclusive mutation that
// changes what readers may observe (alignment, view-set mutation, close)
// ends with a publication; between publications the current state is
// immutable by construction. A publication cannot fail: the capture only
// shares pointers (viewset.Set.Snapshot).
//
//asv:locked=exclusive
func (e *Engine) publishStateLocked() {
	t0 := time.Now()
	fullPages, retired := e.col.CaptureSnapshot() //asv:handoff displaced frames ride the retiring state's retiredFrames to the reclaim walk
	retired = append(retired, e.pendingRetired...)
	e.pendingRetired = nil
	snap := e.set.Snapshot(fullPages) //asv:handoff the capture is owned by the published engineState; reclaim releases it
	if e.pendingCount.Load() > 0 {
		// Applied-but-unaligned writes are buffered, so this is not their
		// alignment's publication (that one drains the buffer first):
		// partial views keep soft-TLBs that still resolve to the displaced
		// frames, and this successor captures them as they are. Park the
		// frames; the alignment's own publication refreshes those views
		// and retires them.
		e.pendingRetired, retired = retired, nil
	}
	st := &engineState{snap: snap, gen: e.gen, closed: e.closed, publishedAt: time.Now().UnixNano()}
	st.refs.init(1)
	old := e.state.Load()
	old.retiredFrames = retired
	old.next = st
	e.state.Store(st)
	// Journal the publication before dropping old's publication reference:
	// that drop may retire old inline, and the timeline should read
	// published(N+1) then retired(N).
	if e.journal != nil {
		e.journal.Record(obs.EvEpochPublished, int64(e.gen), int64(snap.Len()), int64(len(retired)))
	}
	e.releaseState(old) // drop old's publication reference
	e.stats.publishes.Add(1)
	e.stats.publishNanos.Add(uint64(time.Since(t0)))
}

// reclaim advances the oldest-state pointer across drained states in
// publication order, releasing each retired state's captured views and
// freeing its displaced frames. The prefix rule is what makes frame
// reuse safe: a frame displaced while state S was current may be
// referenced by any capture up to S, so it is freed only once S and all
// its predecessors have drained. The walk stops at the current state,
// which always holds its publication reference.
func (e *Engine) reclaim() {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	advanced := false
	now := time.Now().UnixNano()
	for {
		st := e.oldest
		// The drained check must precede any read of next/retiredFrames:
		// both are written just before the publication reference is
		// dropped, so observing the drained count (an atomic load)
		// happens-after those writes. A drained state always has a
		// successor — the publication reference is only dropped at swap.
		if st == nil || !st.refs.drained() || st.next == nil {
			break
		}
		st.snap.ReleaseViews()
		for _, fr := range st.retiredFrames {
			e.col.Kernel().FreeFrame(fr)
		}
		lag := now - st.publishedAt
		if lag < 0 {
			lag = 0
		}
		e.ins.retireLag.Observe(uint64(lag))
		if e.journal != nil {
			e.journal.Record(obs.EvEpochRetired, int64(st.gen), lag, int64(len(st.retiredFrames)))
		}
		st.retiredFrames = nil
		e.oldest = st.next
		advanced = true
	}
	if advanced {
		e.stateCond.Broadcast()
	}
}

// waitStatesDrained blocks until every superseded state has drained and
// been reclaimed — Engine.Close's barrier. In-flight queries finish on
// their own; a still-open Snapshot blocks the wait until it is closed,
// which is the documented Close contract.
func (e *Engine) waitStatesDrained() {
	e.stateMu.Lock()
	for {
		// Re-load the current pointer each round: a query that was
		// already past the closed check may still flush-and-publish once
		// more, and the wait must chase the newest state, not a stale
		// notion of it. The current state must also be down to its
		// publication reference — a reader pinned to the FINAL state
		// never shows up in the oldest-pointer walk, but Close's
		// contract is that no scan is in flight when it returns.
		cur := e.state.Load()
		if e.oldest == cur && cur.refs.count() <= 1 {
			break
		}
		e.stateCond.Wait()
	}
	e.stateMu.Unlock()
}

// Snapshot pins the current routed-read state and returns a handle whose
// queries all observe exactly that epoch: repeatable, never-blocking
// reads that proceed while writers flush, alignment rewires views, or
// the autopilot retires them. Pending updates buffered at call time are
// flushed first, so the snapshot reflects every write applied before it
// was taken; writes after it are invisible through the handle. Close
// releases the pin — Engine.Close blocks until every snapshot is closed.
func (e *Engine) Snapshot() (*Snapshot, error) {
	if err := e.flushPendingForRead(); err != nil {
		return nil, err
	}
	st := e.acquireState()
	if st.closed {
		// A pin on a closed engine would outlive Close's drain barrier
		// and read column frames the owner is free to release — refuse
		// rather than hand out a handle that can silently serve
		// recycled memory.
		e.releaseState(st)
		return nil, errors.New("core: engine is closed")
	}
	s := &Snapshot{e: e}
	s.st.Store(st)
	return s, nil
}

// Snapshot is a pinned engine epoch. Its queries are pure reads: they
// route and scan the pinned capture without flushing later updates and
// without creating candidate views, and they cannot block on any writer
// or maintenance work. A Snapshot is safe for concurrent use; Close is
// idempotent (and safe concurrently with queries, which then report the
// handle closed).
type Snapshot struct {
	e  *Engine
	st atomic.Pointer[engineState] // nil after Close
}

// pinned returns the pinned state, or nil after Close.
func (s *Snapshot) pinned() *engineState { return s.st.Load() }

// QueryOpt answers [lo, hi] from the pinned epoch with explicit options.
// Adaptive side effects never happen on a snapshot read; the answer's
// telemetry reflects the pinned routing.
func (s *Snapshot) QueryOpt(lo, hi uint64, opt QueryOptions) (Answer, error) {
	return s.query(lo, hi, opt, false)
}

// QueryOptAdapt answers [lo, hi] from the pinned epoch like QueryOpt
// but with the usual adaptive side effects: the scan builds a candidate
// view from the pinned capture and offers it to the live set, where the
// generation check discards it if alignment, a rebuild or Close ran
// since the pin. Table.Select uses this — per-column reads pinned to one
// catalog instant that still grow the view sets as a side product. The
// publication step briefly takes the engine lock exclusively, so unlike
// QueryOpt this call may wait on maintenance work (after the answer is
// computed).
func (s *Snapshot) QueryOptAdapt(lo, hi uint64, opt QueryOptions) (Answer, error) {
	return s.query(lo, hi, opt, true)
}

// query runs the engine's one read body against the handle's pin.
func (s *Snapshot) query(lo, hi uint64, opt QueryOptions, adapt bool) (Answer, error) {
	st := s.pinned()
	if st == nil {
		return Answer{}, errSnapshotClosed
	}
	return s.e.read(st, lo, hi, opt, adapt)
}

// Views returns the number of partial views captured by the pinned
// epoch (0 after Close).
func (s *Snapshot) Views() int {
	if st := s.pinned(); st != nil {
		return st.snap.Len()
	}
	return 0
}

// Close releases the pin. Double-close is a no-op.
func (s *Snapshot) Close() {
	if st := s.st.Swap(nil); st != nil {
		s.e.releaseState(st)
	}
}
