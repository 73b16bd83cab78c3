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
// the capture; they never enter the room lock. Writers use the
// remaining two room modes (see roomLock): concurrent Update callers
// share the update room, appending to per-shard pending buffers (the
// per-shard lock serializes writes to the same physical page, and the
// column's copy-on-write shadows first-writes per epoch so pinned
// readers keep frozen pages), and every operation that mutates view
// state (FlushUpdates/AlignViews, CreateViewsOpt, RebuildViews, Close, the
// autopilot's lifecycle duties) takes the exclusive room, builds a
// successor state, and swaps it in. A query that grows the view set
// builds its candidate entirely from private state during the pinned
// scan and only takes the exclusive room for the retention decision
// that publishes it. The VM simulator below has its own locks, so
// background mapping keeps overlapping with scanning exactly as in
// §2.3.
type Engine struct {
	col    *storage.Column
	cfg    Config
	set    *viewset.Set
	mapper *view.Mapper

	// mu serializes view-set mutation and page rewiring (exclusive room)
	// against the update room and the live-set readers of the scan room
	// (Views, String). Queries never take it: they read published
	// immutable states, and the copy-on-write write path keeps writers
	// off every page a pinned capture can reach (§2.4 consistency comes
	// from flush-then-publish instead of reader/writer exclusion).
	mu roomLock

	// state is the current published routed-read state; stateMu/stateCond
	// guard the retirement walk from oldest to newest (see state.go).
	// pendingRetired parks displaced frames across a failed publication,
	// and across publications that run while applied writes are still
	// unaligned (see publishStateLocked); retireErr records the first
	// error surfaced while retiring states (returned by Close).
	state          atomic.Pointer[engineState]
	stateMu        sync.Mutex
	stateCond      *sync.Cond
	oldest         *engineState
	pendingRetired []vmsim.FrameID
	retireErr      error
	// closing arms the drain barrier's wakeup in releaseState; set by
	// Close before it waits, so the hot read path pays one atomic load.
	closing atomic.Bool
	// shards are the pending update buffers, hashed by physical page
	// (Row / ValuesPerPage % len(shards)). Writers append under the
	// update room plus the per-shard lock; the exclusive room drains
	// them (takePendingLocked) into one deterministic batch.
	shards       []updateShard
	pendingCount atomic.Int64 // total buffered updates across all shards

	// releaseHook/createHook intercept view release/creation during
	// RebuildViews; tests inject faults through them. Nil selects the
	// real operations.
	releaseHook func(*view.View) error
	createHook  func(lo, hi uint64) (*view.View, error)

	// gen counts the mutations that invalidate an in-flight candidate
	// view: update alignment, view rebuild, and engine close (guarded by
	// mu). A query captures gen during its read-locked scan; if the value
	// changed by the time it reacquires the write lock to publish its
	// candidate, the candidate's page set was built from pre-mutation
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
	// nil when disabled. model is its adaptive-parallelism cost model,
	// consulted on the scan and alignment paths (nil means static
	// fan-out). Both are set once in NewEngine and never mutated, so
	// nil-checks need no lock.
	pilot *autopilot.Pilot
	model *autopilot.CostModel

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

// Stats accumulates engine activity since creation (or ResetStats).
type Stats struct {
	Queries         uint64 // total queries answered
	FullViewQueries uint64 // queries whose routing included the full view
	PagesScanned    uint64 // physical pages read by queries
	ViewsCreated    uint64 // candidates inserted as new views
	ViewsReplaced   uint64 // candidates that replaced an existing view
	ViewsDiscarded  uint64 // candidates discarded (retention rules or stale publication)
	ViewsEvicted    uint64 // LRU evictions under the EvictLRU limit policy
	UpdatesBuffered uint64 // updates accepted via Update
	UpdateBatches   uint64 // FlushUpdates / AlignViews invocations
	PagesAdded      uint64 // view pages added by update alignment
	PagesRemoved    uint64 // view pages removed by update alignment
	ViewsExpired    uint64 // cold views evicted by the autopilot lifecycle
	ViewsRebuilt    uint64 // fragmented views rebuilt by the autopilot lifecycle
	StatePublishes  uint64 // routed-read states published (epoch swaps)
	PublishNanos    uint64 // cumulative wall time of successful state publications, ns
	// PublishAttemptNanos accumulates the wall time of every publication
	// attempt, successful or not — failed captures burn real exclusive-room
	// time that PublishNanos (successes only) would hide.
	PublishAttemptNanos uint64
	PublishErrors       uint64 // failed publication attempts (capture snapshot errors)
	RetireErrors        uint64 // errors surfaced while retiring drained states
}

// engineStats is the lock-free internal counterpart of Stats: counters
// are bumped from concurrent read-locked queries, so each is atomic.
type engineStats struct {
	queries             atomic.Uint64
	fullViewQueries     atomic.Uint64
	pagesScanned        atomic.Uint64
	viewsCreated        atomic.Uint64
	viewsReplaced       atomic.Uint64
	viewsDiscarded      atomic.Uint64
	viewsEvicted        atomic.Uint64
	updatesBuffered     atomic.Uint64
	updateBatches       atomic.Uint64
	pagesAdded          atomic.Uint64
	pagesRemoved        atomic.Uint64
	viewsExpired        atomic.Uint64
	viewsRebuilt        atomic.Uint64
	publishes           atomic.Uint64
	publishNanos        atomic.Uint64
	publishAttemptNanos atomic.Uint64
	publishErrors       atomic.Uint64
	retireErrors        atomic.Uint64
}

func (s *engineStats) snapshot() Stats {
	return Stats{
		Queries:             s.queries.Load(),
		FullViewQueries:     s.fullViewQueries.Load(),
		PagesScanned:        s.pagesScanned.Load(),
		ViewsCreated:        s.viewsCreated.Load(),
		ViewsReplaced:       s.viewsReplaced.Load(),
		ViewsDiscarded:      s.viewsDiscarded.Load(),
		ViewsEvicted:        s.viewsEvicted.Load(),
		UpdatesBuffered:     s.updatesBuffered.Load(),
		UpdateBatches:       s.updateBatches.Load(),
		PagesAdded:          s.pagesAdded.Load(),
		PagesRemoved:        s.pagesRemoved.Load(),
		ViewsExpired:        s.viewsExpired.Load(),
		ViewsRebuilt:        s.viewsRebuilt.Load(),
		StatePublishes:      s.publishes.Load(),
		PublishNanos:        s.publishNanos.Load(),
		PublishAttemptNanos: s.publishAttemptNanos.Load(),
		PublishErrors:       s.publishErrors.Load(),
		RetireErrors:        s.retireErrors.Load(),
	}
}

func (s *engineStats) reset() {
	s.queries.Store(0)
	s.fullViewQueries.Store(0)
	s.pagesScanned.Store(0)
	s.viewsCreated.Store(0)
	s.viewsReplaced.Store(0)
	s.viewsDiscarded.Store(0)
	s.viewsEvicted.Store(0)
	s.updatesBuffered.Store(0)
	s.updateBatches.Store(0)
	s.pagesAdded.Store(0)
	s.pagesRemoved.Store(0)
	s.viewsExpired.Store(0)
	s.viewsRebuilt.Store(0)
	s.publishes.Store(0)
	s.publishNanos.Store(0)
	s.publishAttemptNanos.Store(0)
	s.publishErrors.Store(0)
	s.retireErrors.Store(0)
}

// NewEngine wraps a filled column in an adaptive storage layer.
func NewEngine(col *storage.Column, cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.LazyViews {
		cfg.Create.Lazy = true
	}
	full, err := view.NewFull(col)
	if err != nil {
		return nil, err
	}
	set := viewset.New(full, cfg.MaxViews, cfg.DiscardTolerance, cfg.ReplaceTolerance)
	set.SetLimitPolicy(cfg.Limit)
	e := &Engine{
		col:    col,
		cfg:    cfg,
		set:    set,
		shards: make([]updateShard, resolveShards(cfg.UpdateShards)),
	}
	e.stateCond = sync.NewCond(&e.stateMu)
	// Telemetry handles are resolved once here and only dereferenced on
	// hot paths; the journal is nil (a single pointer test per event
	// site) unless Config.JournalEvents enables it.
	e.ins = newEngineInstruments()
	e.journal = obs.NewJournal(cfg.JournalEvents, nil)
	e.mu.obs = &roomObs{wait: e.ins.roomWait, hold: e.ins.roomHold, journal: e.journal}
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
	if err := e.initState(); err != nil {
		return nil, err
	}
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
		e.model = p.Model()
	}
	return e, nil
}

// resolveWorkers maps a Parallelism knob value to a scan worker count:
// 0 selects 1 (serial, the paper's behaviour), a positive value is taken
// literally, and a negative value selects GOMAXPROCS.
func resolveWorkers(n int) int {
	switch {
	case n == 0:
		return 1
	case n < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return n
	}
}

// resolveShards maps the UpdateShards knob to a pending-buffer shard
// count. Sharding never changes semantics (FlushUpdates merges shards
// into one deterministic batch), so unlike Parallelism the default (0)
// scales with the machine: GOMAXPROCS shards. A positive value is taken
// literally — 1 reproduces the single-buffer write path.
func resolveShards(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Column returns the underlying physical column.
func (e *Engine) Column() *storage.Column { return e.col }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

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

// ResetStats zeroes the cumulative counters.
func (e *Engine) ResetStats() { e.stats.reset() }

// ViewSpec is one view request of the options-based creation surface:
// the covered range plus the per-view overrides the facade's ViewOption
// constructors set. Specs are built as literals and never mutated after
// they are handed to the engine.
//
//asv:immutable
type ViewSpec struct {
	Lo, Hi uint64
	// Lazy overrides the engine default (Config.LazyViews / Create.Lazy)
	// for this view when HasLazy is set.
	Lazy    bool
	HasLazy bool
	// Pinned exempts the view's pages from tier demotion.
	Pinned bool
}

// CreateViewsOpt builds one partial view per spec in a single column
// pass and publishes them in one state swap — the one explicit-creation
// entry point. Each view keeps its declared [Lo, Hi] rather than an
// extended range, like rebuilt views, so one call per spec builds the
// same page sets; the cost is one qualification scan — with a per-page
// zone-map prefilter — plus one publication instead of len(specs) of
// each; the many-views experiments stand up thousands of views this way.
// On any error nothing is inserted and nothing is published.
func (e *Engine) CreateViewsOpt(specs []ViewSpec) ([]*view.View, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	builders := make([]*view.Builder, len(specs))
	abort := func(firstErr error) ([]*view.View, error) {
		for _, b := range builders {
			if b != nil {
				_ = b.Abort() //asv:ignore-err aborting half-built views after a prior error; that error is returned
			}
		}
		return nil, firstErr
	}
	for i, sp := range specs {
		opts := e.cfg.Create
		if sp.HasLazy {
			opts.Lazy = sp.Lazy
		}
		b, err := view.NewBuilder(e.col, opts, e.mapper)
		if err != nil {
			return abort(err)
		}
		builders[i] = b
	}
	for p := 0; p < e.col.NumPages(); p++ {
		pg, err := e.col.PageBytes(p)
		if err != nil {
			return abort(err)
		}
		// Zone-map prefilter: a page whose [min, max] zone misses a
		// requested range cannot qualify for it, and most pages miss most
		// ranges when thousands of narrow views are requested at once.
		zmin, zmax := storage.Zone(pg)
		for i, sp := range specs {
			if zmax < sp.Lo || zmin > sp.Hi {
				continue
			}
			if s := storage.ScanFilter(pg, sp.Lo, sp.Hi); s.Count > 0 {
				builders[i].AddPage(p)
			}
		}
	}
	views := make([]*view.View, len(specs))
	for i, sp := range specs {
		v, err := builders[i].Finish(sp.Lo, sp.Hi)
		builders[i] = nil
		if err != nil {
			for _, w := range views[:i] {
				e.set.Remove(w)
				_ = w.Release() //asv:ignore-err unwinding batch creation; the build error is returned
			}
			return abort(err)
		}
		v.SetPinned(sp.Pinned)
		if err := e.set.Insert(v); err != nil {
			_ = v.Release() //asv:ignore-err unwinding a failed insert; the insert error is returned
			for _, w := range views[:i] {
				e.set.Remove(w)
				_ = w.Release() //asv:ignore-err unwinding batch creation; the insert error is returned
			}
			return abort(err)
		}
		views[i] = v
	}
	if err := e.publishStateLocked(); err != nil {
		for _, v := range views {
			e.set.Remove(v)
			_ = v.Release() //asv:ignore-err unwinding a failed publication; the publish error is returned
		}
		return nil, err
	}
	return views, nil
}

// releaseView releases a view through the test-injectable hook.
func (e *Engine) releaseView(v *view.View) error {
	if e.releaseHook != nil {
		return e.releaseHook(v)
	}
	return v.Release()
}

// createView builds a partial view over [lo, hi] through the
// test-injectable hook.
func (e *Engine) createView(lo, hi uint64) (*view.View, error) {
	if e.createHook != nil {
		return e.createHook(lo, hi)
	}
	return view.Create(e.col, lo, hi, e.cfg.Create, e.mapper)
}

// RebuildViews drops every partial view and recreates each one from
// scratch over its covered range — the "New" (rebuild) alternative that
// Figure 7 compares against incremental alignment. Pending updates are
// dropped rather than flushed: the rebuild scans the column's current
// contents, which already include every applied write.
//
// Errors are collected, not short-circuited: all ranges are recorded
// before anything is released, releases proceed best-effort, and every
// range is still rebuilt even when an earlier release or creation
// failed — a mid-rebuild error must not leak the remaining old views or
// silently drop their ranges from the rebuilt set. The first error is
// returned.
func (e *Engine) RebuildViews() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gen++ // in-flight candidates were routed over the pre-rebuild set
	e.resetPendingLocked()
	old := e.set.Clear()
	type rng struct {
		lo, hi uint64
		pinned bool
	}
	ranges := make([]rng, 0, len(old))
	for _, v := range old {
		ranges = append(ranges, rng{v.Lo(), v.Hi(), v.Pinned()})
	}
	var firstErr error
	for _, v := range old {
		if err := e.releaseView(v); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, r := range ranges {
		v, err := e.createView(r.lo, r.hi)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		// Rebuilt views keep their original declared range (Create may
		// extend, but the view's contract is its pre-update range) and
		// their demotion exemption.
		v.SetRange(r.lo, r.hi)
		v.SetPinned(r.pinned)
		if err := e.set.Insert(v); err != nil {
			_ = v.Release() //asv:ignore-err unwinding a failed insert; the insert error is recorded in firstErr
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := e.publishStateLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Close releases all partial views and stops the mapping thread and the
// autopilot. It waits for in-flight queries to drain and blocks until
// every Snapshot taken from the engine has been closed — a pinned epoch
// keeps its views and frozen page frames alive, and Close's contract is
// that nothing survives it. Close is idempotent. The column itself
// stays usable (and must be closed by its owner).
func (e *Engine) Close() error {
	if e.pilot != nil {
		// Stop before taking the exclusive room: the pilot's final drain
		// applies any queued writes (through the update room), so no
		// accepted Update is lost; alignment is skipped, the views are
		// about to be released anyway.
		e.pilot.Stop()
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
	var firstErr error
	for _, v := range e.set.Clear() {
		// Drops the set's owner reference; the unmap happens here unless
		// a still-pinned state holds the view, in which case it follows
		// that state's drain.
		if err := v.Release(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := e.publishStateLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	e.mu.Unlock()

	// Wait for every superseded state to drain: in-flight queries finish
	// on their own, and open snapshots block here until closed. Only
	// then is it safe to stop the mapper — a reader pinned to an older
	// state may still be finishing a candidate build through it.
	e.waitStatesDrained()
	if e.mapper != nil {
		e.mapper.Stop()
	}

	// Final-drain sweep: when the close-time publication itself failed,
	// the displaced frames it collected are parked in pendingRetired with
	// no later publication to fold them into, and the set's delta-capture
	// cache still holds view references from the last successful capture.
	// Free the frames and drop the cache here or both leak for good.
	e.mu.Lock()
	for _, fr := range e.pendingRetired {
		e.col.Kernel().FreeFrame(fr)
	}
	e.pendingRetired = nil
	if err := e.set.ResetCaptureCache(); err != nil {
		e.stats.retireErrors.Add(1)
		if firstErr == nil {
			firstErr = err
		}
	}
	e.mu.Unlock()

	e.stateMu.Lock()
	if e.retireErr != nil && firstErr == nil {
		firstErr = e.retireErr
	}
	e.stateMu.Unlock()
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
