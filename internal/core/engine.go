package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/asv-db/asv/internal/autopilot"
	"github.com/asv-db/asv/internal/bitvec"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/viewset"
	"github.com/asv-db/asv/internal/vmsim"
)

// Engine is the adaptive storage layer of one column: it owns the view
// set, answers range queries with automatic routing, grows the view set as
// a side product of query processing, and realigns views after update
// batches.
//
// An Engine is safe for concurrent use. Routed read-only queries are
// epoch-based and lock-free: the routed-read state — the copy-on-write
// view-set capture, the candidate-invalidation generation, and the
// resolved soft-TLBs — lives in an immutable engineState published via
// an atomic pointer (see state.go). Queries load the pointer, pin the
// state with one atomic increment, and route and scan entirely against
// the capture; they never take the engine lock (see engineLock). Update
// callers and the live-set readers (Views, String, the autopilot's
// temperature and demotion sweeps) hold it shared; writers then
// serialize only per pending-buffer shard, and the column's copy-on-write
// shadows first-writes per epoch so pinned readers keep frozen pages.
// Every operation that mutates view state (FlushUpdates,
// CreateViewsOpt, RebuildViews, Close, the autopilot's lifecycle duties)
// holds it exclusively, builds a successor state, and swaps it in. A
// query that grows the view set builds its candidate entirely from
// private state during the pinned scan and only takes the lock
// exclusively for the retention decision that publishes it. The VM
// simulator below has its own locks, so background mapping keeps
// overlapping with scanning exactly as in §2.3.
type Engine struct {
	col    *storage.Column
	cfg    Config
	set    *viewset.Set
	mapper *view.Mapper

	// mu is the engine lock: exclusive for view-set mutation and page
	// rewiring, shared for writers and live-set readers (Views, String).
	// Queries never take it: they read published immutable states, and
	// the copy-on-write write path keeps writers off every page a pinned
	// capture can reach (§2.4 consistency comes from flush-then-publish
	// instead of reader/writer exclusion).
	mu engineLock

	// state is the current published routed-read state; stateMu/stateCond
	// guard the retirement walk from oldest to newest (see state.go).
	// pendingRetired parks displaced frames across publications that run
	// while applied writes are still unaligned (see publishStateLocked).
	state          atomic.Pointer[engineState]
	stateMu        sync.Mutex
	stateCond      *sync.Cond
	oldest         *engineState
	pendingRetired []vmsim.FrameID
	// closing arms the drain barrier's wakeup in releaseState; set by
	// Close before it waits, so the hot read path pays one atomic load.
	closing atomic.Bool
	// shards are the pending update buffers, hashed by physical page
	// (Row / ValuesPerPage % len(shards)). Writers append under the
	// shared engine lock plus the per-shard lock; an exclusive holder
	// drains them (takePendingLocked) into one deterministic batch.
	shards       []updateShard
	pendingCount atomic.Int64 // total buffered updates across all shards

	// gen counts the mutations that invalidate an in-flight candidate
	// view: update alignment, view rebuild, and engine close (guarded by
	// mu). A query reads gen from the state it pinned for its scan; if the
	// value changed by the time it takes the lock exclusively to publish
	// its candidate, the candidate's page set was built from pre-mutation
	// state (alignment only walks set members, so a late-published view
	// would never be realigned) and is discarded instead of published.
	gen uint64
	// closed is set by Close (guarded by mu); a late publisher must not
	// insert its candidate into the cleared set, which would leak the
	// candidate's mapping past Close.
	closed bool

	// procPool recycles processed-page bitvectors for multi-view dedup;
	// each query takes a private one, so concurrent scans never share.
	procPool sync.Pool

	// pilot is the background maintenance subsystem (Config.Autopilot);
	// nil when disabled. Set once in NewEngine and never mutated, so
	// nil-checks need no lock.
	pilot *autopilot.Pilot

	// tier is the column's second-tier frame map (Config.Tiering); nil
	// keeps the single-tier scan path with zero overhead. Set once in
	// NewEngine, so nil-checks need no lock. See tier.go.
	tier *vmsim.FileTier

	// ins holds the engine's obs instrument handles (always non-nil,
	// set once in NewEngine — recording is a few atomic adds). journal
	// is the typed engine-event ring (Config.JournalEvents); nil keeps
	// every event site a single pointer test, like tier. See
	// telemetry.go.
	ins     *engineInstruments
	journal *obs.Journal
	// lastPromotions remembers the tier promotion counter at the last
	// journal observation, so promote-on-access activity journals as
	// batches rather than per page.
	lastPromotions atomic.Uint64

	stats engineStats
}

// engineLock is the engine lock. Shared holders leave set membership and
// every view's page set fixed; exclusive holders change them. A waiting
// Lock blocks new RLock calls and Unlock admits every waiting reader at
// once, so neither mode starves. The type exists for its asvlint
// annotations: a bare sync.RWMutex only establishes the generic "mu" mode.
type engineLock struct{ rw sync.RWMutex }

//asv:acquires=shared
func (l *engineLock) RLock() { l.rw.RLock() }

//asv:releases=shared
func (l *engineLock) RUnlock() { l.rw.RUnlock() }

//asv:acquires=exclusive
func (l *engineLock) Lock() { l.rw.Lock() }

//asv:releases=exclusive
func (l *engineLock) Unlock() { l.rw.Unlock() }

// Stats accumulates engine activity since creation.
type Stats struct {
	Queries         uint64 // total queries answered
	FullViewQueries uint64 // queries whose routing included the full view
	PagesScanned    uint64 // physical pages read by queries
	ViewsCreated    uint64 // candidates inserted as new views
	ViewsReplaced   uint64 // candidates that replaced an existing view
	ViewsDiscarded  uint64 // candidates discarded (retention rules or stale publication)
	UpdatesBuffered uint64 // updates accepted via Update
	UpdateBatches   uint64 // non-empty FlushUpdates invocations
	PagesAdded      uint64 // view pages added by update alignment
	PagesRemoved    uint64 // view pages removed by update alignment
	ViewsExpired    uint64 // cold views evicted by the autopilot lifecycle
	ViewsRebuilt    uint64 // fragmented views rebuilt by the autopilot lifecycle
	StatePublishes  uint64 // routed-read states published (epoch swaps)
	PublishNanos    uint64 // cumulative wall time of state publications, ns
}

// engineStats is the lock-free internal counterpart of Stats: counters
// are bumped from concurrent read-locked queries, so each is atomic.
type engineStats struct {
	queries         atomic.Uint64
	fullViewQueries atomic.Uint64
	pagesScanned    atomic.Uint64
	viewsCreated    atomic.Uint64
	viewsReplaced   atomic.Uint64
	viewsDiscarded  atomic.Uint64
	updatesBuffered atomic.Uint64
	updateBatches   atomic.Uint64
	pagesAdded      atomic.Uint64
	pagesRemoved    atomic.Uint64
	viewsExpired    atomic.Uint64
	viewsRebuilt    atomic.Uint64
	publishes       atomic.Uint64
	publishNanos    atomic.Uint64
}

func (s *engineStats) snapshot() Stats {
	return Stats{
		Queries:         s.queries.Load(),
		FullViewQueries: s.fullViewQueries.Load(),
		PagesScanned:    s.pagesScanned.Load(),
		ViewsCreated:    s.viewsCreated.Load(),
		ViewsReplaced:   s.viewsReplaced.Load(),
		ViewsDiscarded:  s.viewsDiscarded.Load(),
		UpdatesBuffered: s.updatesBuffered.Load(),
		UpdateBatches:   s.updateBatches.Load(),
		PagesAdded:      s.pagesAdded.Load(),
		PagesRemoved:    s.pagesRemoved.Load(),
		ViewsExpired:    s.viewsExpired.Load(),
		ViewsRebuilt:    s.viewsRebuilt.Load(),
		StatePublishes:  s.publishes.Load(),
		PublishNanos:    s.publishNanos.Load(),
	}
}

// NewEngine wraps a filled column in an adaptive storage layer.
func NewEngine(col *storage.Column, cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	full, err := view.NewFull(col)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		col: col,
		cfg: cfg,
		set: viewset.New(full, cfg.MaxViews, cfg.DiscardTolerance, cfg.ReplaceTolerance),
		// Sharding never changes semantics (FlushUpdates merges the shards
		// into one deterministic batch), so the count scales with the
		// machine.
		shards: make([]updateShard, runtime.GOMAXPROCS(0)),
	}
	e.stateCond = sync.NewCond(&e.stateMu)
	// Telemetry handles are resolved once here and only dereferenced on
	// hot paths; the journal is nil (a single pointer test per event
	// site) unless Config.JournalEvents enables it.
	e.ins = newEngineInstruments()
	e.journal = obs.NewJournal(cfg.JournalEvents, nil)
	// Epoch routing needs the column's copy-on-write write path: a
	// published capture must stay frozen while writers shadow pages.
	col.EnableSnapshots()
	if cfg.Tiering != nil && cfg.Tiering.Enabled() {
		t, err := col.EnableTiering(*cfg.Tiering)
		if err != nil {
			return nil, err
		}
		e.tier = t
	}
	e.initState()
	if cfg.Adaptive && cfg.Create.Concurrent {
		e.mapper = view.NewMapper()
	}
	if cfg.Autopilot != nil {
		p, err := autopilot.Start(pilotTarget{e}, *cfg.Autopilot, col.Rows())
		if err != nil {
			if e.mapper != nil {
				e.mapper.Stop()
			}
			return nil, err
		}
		e.pilot = p
	}
	return e, nil
}

// Column returns the underlying physical column.
func (e *Engine) Column() *storage.Column { return e.col }

// ViewSet returns the engine's view index.
func (e *Engine) ViewSet() *viewset.Set { return e.set }

// Views returns a snapshot of the current partial views.
func (e *Engine) Views() []*view.View {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.set.Partials()
}

// Stats returns a snapshot of the cumulative counters.
func (e *Engine) Stats() Stats { return e.stats.snapshot() }

// ViewSpec is one view request of the options-based creation surface:
// the covered range plus the per-view overrides the facade's ViewOption
// constructors set. Specs are built as literals and never mutated after
// they are handed to the engine.
//
//asv:immutable
type ViewSpec struct {
	Lo, Hi uint64
	// Lazy overrides the engine default (Config.Create.Lazy) for this
	// view when HasLazy is set.
	Lazy    bool
	HasLazy bool
	// Pinned exempts the view's pages from tier demotion.
	Pinned bool
}

// CreateViewsOpt builds one partial view per spec in a single column
// pass (view.Build) and publishes them in one state swap — the one
// explicit-creation entry point. Each view keeps its declared [Lo, Hi]
// rather than an extended range, like rebuilt views, so one call per spec
// builds the same page sets; the cost is one qualification scan plus one
// publication instead of len(specs) of each. On any error nothing is
// inserted and nothing is published.
func (e *Engine) CreateViewsOpt(specs []ViewSpec) ([]*view.View, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	vspecs := make([]view.Spec, len(specs))
	for i, sp := range specs {
		opts := e.cfg.Create
		if sp.HasLazy {
			opts.Lazy = sp.Lazy
		}
		vspecs[i] = view.Spec{Lo: sp.Lo, Hi: sp.Hi, Opts: opts, Pinned: sp.Pinned}
	}
	views, err := view.Build(e.col, vspecs, e.mapper)
	if err != nil {
		return nil, err
	}
	for _, v := range views {
		if err := e.set.Insert(v); err != nil {
			for _, v := range views {
				e.set.Remove(v)
				v.Release()
			}
			return nil, err
		}
	}
	e.publishStateLocked()
	return views, nil
}

// RebuildViews recreates every partial view from scratch over its
// declared range — the "New" (rebuild) alternative that Figure 7 compares
// against incremental alignment. Pending updates are dropped rather than
// flushed: the rebuild scans the column's current contents, which
// already include every applied write.
//
// The rebuild is all-or-nothing: every replacement is built before any
// old view is touched, so a failed build leaves the views, their order,
// the pending updates and the mappings exactly as they were.
func (e *Engine) RebuildViews() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rebuildLocked(e.set.Partials(), true)
}

// rebuildLocked is the one rebuild slice, shared by RebuildViews and the
// autopilot's per-view rebuild: it builds a replacement for every view
// in old (set members) in one view.Build pass, with the engine's default
// creation options, each old view's declared range and its pinned flag.
// Only then does it swap each replacement into its old view's slot,
// drop the pending updates when dropPending is set, bump gen, release the
// old views and publish. A failed build changes nothing.
//
//asv:locked=exclusive
func (e *Engine) rebuildLocked(old []*view.View, dropPending bool) error {
	specs := make([]view.Spec, len(old))
	for i, v := range old {
		specs[i] = view.Spec{Lo: v.Lo(), Hi: v.Hi(), Opts: e.cfg.Create, Pinned: v.Pinned()}
	}
	repl, err := view.Build(e.col, specs, e.mapper)
	if err != nil {
		return err
	}
	for i, v := range old {
		e.set.ReplaceExisting(v, repl[i])
	}
	if dropPending {
		e.resetPendingLocked()
	}
	e.gen++ // in-flight candidates were routed over the old views' pages
	for _, v := range old {
		v.Release()
	}
	e.publishStateLocked()
	return nil
}

// Close releases all partial views and stops the mapping thread and the
// autopilot. It waits for in-flight queries to drain and blocks until
// every Snapshot taken from the engine has been closed — a pinned epoch
// keeps its views and frozen page frames alive, and Close's contract is
// that nothing survives it. It returns first the autopilot's unreported
// flush error, if any. Close is idempotent. The column itself stays
// usable (and must be closed by its owner).
func (e *Engine) Close() error {
	var firstErr error
	if e.pilot != nil {
		// Stop before taking the lock exclusively: the pilot's final drain
		// applies any queued writes (under the shared mode), so no
		// accepted Update is lost; alignment is skipped, the views are
		// about to be released anyway. Its error, or that of a background
		// flush no Sync consumed, is the first Close reports.
		e.pilot.Stop()
		firstErr = e.pilot.Err()
	}
	e.closing.Store(true)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.waitStatesDrained()
		return nil
	}
	e.gen++
	e.closed = true
	for _, v := range e.set.Clear() {
		// Drops the set's owner reference; the unmap happens here unless
		// a still-pinned state holds the view, in which case it follows
		// that state's drain.
		v.Release()
	}
	e.publishStateLocked()
	e.mu.Unlock()

	// Wait for every superseded state to drain: in-flight queries finish
	// on their own, and open snapshots block here until closed. Only
	// then is it safe to stop the mapper — a reader pinned to an older
	// state may still be finishing a candidate build through it.
	e.waitStatesDrained()
	if e.mapper != nil {
		e.mapper.Stop()
	}

	// Final-drain sweep: writes applied but never aligned (buffered
	// updates, or the pilot's final drain, which skips alignment) leave
	// the close-time publication's displaced frames parked in
	// pendingRetired, with no later publication to fold them into. Free
	// them here or they leak for good.
	e.mu.Lock()
	for _, fr := range e.pendingRetired {
		e.col.Kernel().FreeFrame(fr)
	}
	e.pendingRetired = nil
	e.mu.Unlock()
	return firstErr
}

// getProcessed takes a cleared processed-pages bitvector sized to the
// column from the pool (or allocates one).
func (e *Engine) getProcessed() *bitvec.Vector {
	if v, ok := e.procPool.Get().(*bitvec.Vector); ok && v.Len() == e.col.NumPages() {
		v.Reset()
		return v
	}
	return bitvec.New(e.col.NumPages())
}

// putProcessed returns a bitvector to the pool.
func (e *Engine) putProcessed(v *bitvec.Vector) { e.procPool.Put(v) }

// String summarizes the engine state.
func (e *Engine) String() string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return fmt.Sprintf("Engine(%s, %d partial views, frozen=%v)",
		e.cfg.Mode, e.set.Len(), e.set.Frozen())
}
