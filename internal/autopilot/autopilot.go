// Package autopilot is the engine's background maintenance subsystem: it
// moves every maintenance action the paper performs inline — flush, §2.4
// alignment, view lifecycle — off the request path and onto a per-engine
// pilot goroutine, the way server-shaped systems (Virtuoso's asynchronous
// VM machinery, daemon-driven page migration in tiered-memory buffer
// managers) keep their foreground paths hot.
//
// The pilot has two coordinated duties:
//
//  1. Bounded-latency write coalescing: Update calls enqueue into sharded
//     intake buffers and return immediately; the pilot applies and aligns
//     the queued writes as one group commit when CoalesceCount /
//     CoalesceBytes is reached or a MaxFlushLatency deadline expires —
//     lone writes under concurrent readers become group commits without
//     caller-side UpdateBatch.
//  2. Temperature-driven view lifecycle: on every maintenance tick the
//     pilot reads per-view access recency/frequency (exported by viewset
//     from its LRU clock), evicts cold partial views, rebuilds
//     fragmented ones and, on a tiered engine, demotes cold pages — each
//     action in its own slice of the engine lock's exclusive mode,
//     released in between, so writers keep flowing between slices. Each
//     duty reads one signal: a view's age evicts it, its page-order
//     fragmentation rebuilds it, and hot-tier occupancy at 0.9 of the
//     budget demotes the coldest unpinned views' pages until it is back
//     at 0.7.
//
// All time flows through an injectable Clock, so every behaviour is
// deterministic in tests (ManualClock) without a single sleep.
package autopilot

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/storage"
)

// Defaults for Config's zero values.
const (
	defaultCoalesceCount   = 256
	defaultCoalesceBytes   = 1 << 20
	defaultMaxFlushLatency = 5 * time.Millisecond
	defaultMaintain        = 50 * time.Millisecond
	defaultColdTicks       = 4096
	defaultRebuildFrag     = 0.5
	defaultMinRebuildPages = 16
	// tierHighWater starts the demotion duty once hot-tier occupancy (hot
	// frames / budget) reaches this fraction; tierLowWater is the
	// occupancy the duty then drives the hot tier back down to.
	tierHighWater = 0.9
	tierLowWater  = 0.7
	// writeBytes is the queued size of one Write (row + value). Updates
	// are fixed-size today, so CoalesceBytes is effectively a second
	// count bound; the knob exists so variable-size updates slot in
	// without an API change.
	writeBytes = 16
	// backpressureFactor scales CoalesceCount into the default MaxQueued
	// cap: a writer that outruns the pilot by this factor drains
	// cooperatively instead of growing the intake without bound.
	backpressureFactor = 8
)

// ErrStopped is returned by Enqueue after the pilot has been stopped
// (the engine is closing).
var ErrStopped = errors.New("autopilot: stopped")

// Write is one fire-and-forget row overwrite queued through the pilot.
type Write struct {
	Row   int
	Value uint64
}

// ViewTemp is one partial view's temperature, exported by the engine from
// the view set's LRU clock. Handle is opaque to the pilot; the engine
// re-validates it under the engine lock before acting on it.
type ViewTemp struct {
	Handle   any
	LastUsed uint64  // routing tick of the most recent hit
	Uses     uint64  // total routing hits
	Pages    int     // physical pages indexed
	Frag     float64 // 0 = pages in ascending order, 1 = fully shuffled
	Pinned   bool    // exempt from tier demotion (not from eviction)
}

// Target is the engine surface the pilot drives. Implementations take
// their own locks; the pilot never calls a Target method while holding
// one of its own locks other than the drain mutex.
type Target interface {
	// ApplyWrites applies a coalesced group of writes to the column and
	// pending buffers under one shared engine-lock hold (group commit).
	ApplyWrites(ws []Write) error
	// AlignPending flushes the applied-but-unaligned updates through §2.4
	// alignment in one exclusive-lock slice.
	AlignPending() error
	// ViewTemperatures snapshots the LRU clock and per-view temperatures.
	ViewTemperatures() (clock uint64, temps []ViewTemp)
	// EvictViews releases the given cold views in one exclusive-lock
	// slice, skipping handles that left the set since the snapshot. It
	// returns how many views were actually evicted.
	EvictViews(handles []any) int
	// RebuildView rebuilds one fragmented view from the column in its own
	// exclusive-lock slice; false means the handle was no longer a set
	// member.
	RebuildView(handle any) (bool, error)
	// TierInfo snapshots hot-tier occupancy; ok is false when the engine
	// runs single-tier, which keeps the demotion duty off.
	TierInfo() (info TierInfo, ok bool)
	// DemotePages demotes pages of the given views (coldest-first order,
	// chosen by the pilot) to the capacity tier, stopping after maxPages
	// demotions. It returns how many pages were actually demoted; handles
	// that left the set, pinned views and already-cold pages are skipped.
	DemotePages(handles []any, maxPages int) (int, error)
}

// TierInfo is a hot-tier occupancy snapshot — the one signal the
// demotion duty reads.
type TierInfo struct {
	HotFrames int // file pages currently in the hot tier
	HotBudget int // configured hot-tier frame budget
}

// Occupancy returns hot frames as a fraction of the budget (> 1 means
// the hot tier is over budget).
func (i TierInfo) Occupancy() float64 {
	if i.HotBudget <= 0 {
		return 0
	}
	return float64(i.HotFrames) / float64(i.HotBudget)
}

// Config parameterizes a Pilot. The zero value of every field selects the
// documented default; negative values disable optional duties
// (MaintainInterval < 0 disables the lifecycle ticker, ColdTicks < 0
// disables eviction, RebuildFrag < 0 disables rebuilds).
type Config struct {
	// CoalesceCount flushes the intake once this many writes are queued
	// (default 256).
	CoalesceCount int
	// CoalesceBytes flushes the intake once the queued writes exceed this
	// many bytes (default 1 MiB; writes are 16 bytes each today).
	CoalesceBytes int
	// MaxFlushLatency bounds how long an accepted write may stay queued
	// before the pilot applies and aligns it (default 5ms).
	MaxFlushLatency time.Duration
	// MaxQueued is the backpressure cap: a writer that finds this many
	// writes queued drains cooperatively instead of queueing more
	// (default 8 × CoalesceCount).
	MaxQueued int
	// MaintainInterval is the view-lifecycle tick period (default 50ms;
	// < 0 disables the ticker).
	MaintainInterval time.Duration
	// ColdTicks evicts a partial view not routed to for this many LRU
	// clock ticks (default 4096; < 0 disables eviction).
	ColdTicks int
	// RebuildFrag rebuilds a partial view whose page order fragmentation
	// reaches this fraction (default 0.5; < 0 disables rebuilds).
	RebuildFrag float64
	// MinRebuildPages skips rebuilding views smaller than this (default 16).
	MinRebuildPages int
	// Clock injects time; nil selects the real clock.
	Clock Clock
	// OnFlush, when non-nil, observes every coalesced flush (called from
	// the draining goroutine).
	OnFlush func(FlushInfo)
	// OnMaintain, when non-nil, observes every maintenance tick (called
	// from the pilot goroutine).
	OnMaintain func(MaintainReport)
}

// Validate rejects nonsensical knob combinations.
func (c *Config) Validate() error {
	if c.CoalesceCount < 0 {
		return fmt.Errorf("autopilot: negative CoalesceCount %d", c.CoalesceCount)
	}
	if c.CoalesceBytes < 0 {
		return fmt.Errorf("autopilot: negative CoalesceBytes %d", c.CoalesceBytes)
	}
	if c.MaxFlushLatency < 0 {
		return fmt.Errorf("autopilot: negative MaxFlushLatency %s", c.MaxFlushLatency)
	}
	if c.MaxQueued < 0 {
		return fmt.Errorf("autopilot: negative MaxQueued %d", c.MaxQueued)
	}
	if c.RebuildFrag > 1 {
		return fmt.Errorf("autopilot: RebuildFrag %g > 1", c.RebuildFrag)
	}
	return nil
}

// withDefaults resolves zero values to the documented defaults.
func (c Config) withDefaults() Config {
	if c.CoalesceCount == 0 {
		c.CoalesceCount = defaultCoalesceCount
	}
	if c.CoalesceBytes == 0 {
		c.CoalesceBytes = defaultCoalesceBytes
	}
	if c.MaxFlushLatency == 0 {
		c.MaxFlushLatency = defaultMaxFlushLatency
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = backpressureFactor * c.CoalesceCount
	}
	if c.MaintainInterval == 0 {
		c.MaintainInterval = defaultMaintain
	}
	if c.ColdTicks == 0 {
		c.ColdTicks = defaultColdTicks
	}
	if c.RebuildFrag == 0 {
		c.RebuildFrag = defaultRebuildFrag
	}
	if c.MinRebuildPages == 0 {
		c.MinRebuildPages = defaultMinRebuildPages
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

// FlushReason says what triggered a coalesced flush.
type FlushReason int

const (
	// FlushCount: CoalesceCount writes were queued.
	FlushCount FlushReason = iota
	// FlushBytes: CoalesceBytes of writes were queued.
	FlushBytes
	// FlushDeadline: the oldest queued write hit MaxFlushLatency.
	FlushDeadline
	// FlushBackpressure: a writer found MaxQueued writes queued and
	// drained cooperatively.
	FlushBackpressure
	// FlushSync: a synchronous caller (Sync/FlushUpdates) drained.
	FlushSync
	// FlushStop: the pilot drained on shutdown (writes are applied so no
	// accepted update is lost; alignment is skipped, the views are about
	// to be released).
	FlushStop
)

// String renders the reason for logs.
func (r FlushReason) String() string {
	switch r {
	case FlushCount:
		return "count"
	case FlushBytes:
		return "bytes"
	case FlushDeadline:
		return "deadline"
	case FlushBackpressure:
		return "backpressure"
	case FlushSync:
		return "sync"
	case FlushStop:
		return "stop"
	default:
		return fmt.Sprintf("FlushReason(%d)", int(r))
	}
}

// FlushInfo describes one coalesced flush for the OnFlush hook.
type FlushInfo struct {
	Writes  int
	Reason  FlushReason
	Latency time.Duration // oldest queued write's enqueue → flush done
	Err     error
}

// MaintainReport describes one maintenance tick for the OnMaintain hook.
type MaintainReport struct {
	Views        int // partial views inspected
	Evicted      int // cold views released
	Rebuilt      int // fragmented views rebuilt
	PagesDemoted int // pages moved to the capacity tier this tick
	Err          error
}

// Metrics is a snapshot of the pilot's cumulative counters.
type Metrics struct {
	Enqueued            uint64 // writes accepted by Enqueue
	Applied             uint64 // writes applied by coalesced flushes
	Flushes             uint64 // coalesced flushes (all reasons)
	CountFlushes        uint64
	ByteFlushes         uint64
	DeadlineFlushes     uint64
	BackpressureFlushes uint64
	SyncFlushes         uint64
	MaintenanceTicks    uint64
	ViewsEvicted        uint64
	ViewsRebuilt        uint64
	PagesDemoted        uint64 // pages moved to the capacity tier
}

// AvgCoalesce returns the mean writes per coalesced flush.
func (m Metrics) AvgCoalesce() float64 {
	if m.Flushes == 0 {
		return 0
	}
	return float64(m.Applied) / float64(m.Flushes)
}

// intakeShard is one lock-striped intake buffer. The intake takes
// GOMAXPROCS shards; writes hash by physical page like the engine's
// pending buffers, so same-row (same-page) writes keep their arrival
// order.
type intakeShard struct {
	mu sync.Mutex
	ws []Write
	_  [32]byte
}

// Pilot is the per-engine background maintenance goroutine plus the
// intake buffers feeding it.
type Pilot struct {
	cfg    Config
	clock  Clock
	target Target
	rows   int

	shards []intakeShard
	queued atomic.Int64

	oldestMu  sync.Mutex
	oldest    time.Time
	hasOldest bool

	// drainMu serializes drains (pilot, cooperative writers,
	// ApplyQueued); it is acquired before any Target call and never while
	// holding a shard or metric lock.
	drainMu sync.Mutex

	wake        chan struct{}
	stopCh      chan struct{}
	done        chan struct{}
	stopped     atomic.Bool
	maintTicker Ticker // nil when MaintainInterval < 0

	errMu    sync.Mutex
	firstErr error

	mEnqueued            atomic.Uint64
	mApplied             atomic.Uint64
	mFlushes             atomic.Uint64
	mCountFlushes        atomic.Uint64
	mByteFlushes         atomic.Uint64
	mDeadlineFlushes     atomic.Uint64
	mBackpressureFlushes atomic.Uint64
	mSyncFlushes         atomic.Uint64
	mMaintTicks          atomic.Uint64
	mEvicted             atomic.Uint64
	mRebuilt             atomic.Uint64
	mPagesDemoted        atomic.Uint64

	// latHist/batchHist are lock-free log₂ histograms of flush latency
	// (ns) and coalesce batch size. Handles stored once here, bumped from
	// drain.
	latHist   *obs.Histogram
	batchHist *obs.Histogram
}

// Start validates the configuration, resolves defaults and launches the
// pilot goroutine for an engine with the given row count.
func Start(target Target, cfg Config, rows int) (*Pilot, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	p := &Pilot{
		cfg:       cfg,
		clock:     cfg.Clock,
		target:    target,
		rows:      rows,
		shards:    make([]intakeShard, runtime.GOMAXPROCS(0)),
		wake:      make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		done:      make(chan struct{}),
		latHist:   new(obs.Histogram),
		batchHist: new(obs.Histogram),
	}
	if cfg.MaintainInterval > 0 {
		// Created here, not in the goroutine, so the ticker exists the
		// moment Start returns — a deterministic test may advance its
		// ManualClock immediately.
		p.maintTicker = cfg.Clock.NewTicker(cfg.MaintainInterval)
	}
	go p.loop()
	return p, nil
}

// Queued returns the number of accepted-but-unapplied writes.
func (p *Pilot) Queued() int { return int(p.queued.Load()) }

// Err returns the first asynchronous flush error, if any.
func (p *Pilot) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.firstErr
}

// Enqueue accepts one fire-and-forget write: it validates the row, queues
// the write in its page's intake shard and returns. The write is applied
// and aligned by the pilot within MaxFlushLatency (sooner when the
// coalesce thresholds fill); writers that outrun the pilot past MaxQueued
// drain cooperatively, bounding the intake.
func (p *Pilot) Enqueue(row int, value uint64) error {
	if p.stopped.Load() {
		return ErrStopped
	}
	if row < 0 || row >= p.rows {
		return fmt.Errorf("autopilot: row %d out of range [0,%d)", row, p.rows)
	}
	page := row / storage.ValuesPerPage
	sh := &p.shards[page%len(p.shards)]
	sh.mu.Lock()
	sh.ws = append(sh.ws, Write{Row: row, Value: value})
	sh.mu.Unlock()
	n := p.queued.Add(1)
	p.mEnqueued.Add(1)
	if n == 1 {
		p.oldestMu.Lock()
		p.oldest = p.clock.Now()
		p.hasOldest = true
		p.oldestMu.Unlock()
	}
	if p.stopped.Load() {
		// Stop raced this enqueue: its final drain may have collected the
		// shards before our append. Stop's store of `stopped` is ordered
		// before that drain's shard-mutex critical section, so an append
		// the drain missed is guaranteed to observe stopped here — drain
		// once more and the accepted write cannot strand in a dead
		// intake.
		p.drain(FlushStop, false)
		return p.takeErr()
	}
	if int(n) >= p.cfg.MaxQueued {
		// Cooperative backpressure: this writer becomes the group
		// committer instead of growing the queue without bound.
		p.drain(FlushBackpressure, true)
		return p.takeErr()
	}
	select {
	case p.wake <- struct{}{}:
	default:
	}
	return nil
}

// ApplyQueued drains the intake synchronously without aligning — for
// callers about to run alignment themselves (Engine.FlushUpdates).
func (p *Pilot) ApplyQueued() error {
	p.drain(FlushSync, false)
	return p.takeErr()
}

// takeErr consumes the sticky first error so synchronous callers see a
// flush failure exactly once.
func (p *Pilot) takeErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	err := p.firstErr
	p.firstErr = nil
	return err
}

// Stop drains and applies the remaining intake (no accepted write is
// lost), stops the pilot goroutine and waits for it to exit. Idempotent.
func (p *Pilot) Stop() {
	if p.stopped.Swap(true) {
		<-p.done
		return
	}
	close(p.stopCh)
	<-p.done
}

// Metrics snapshots the cumulative counters.
func (p *Pilot) Metrics() Metrics {
	return Metrics{
		Enqueued:            p.mEnqueued.Load(),
		Applied:             p.mApplied.Load(),
		Flushes:             p.mFlushes.Load(),
		CountFlushes:        p.mCountFlushes.Load(),
		ByteFlushes:         p.mByteFlushes.Load(),
		DeadlineFlushes:     p.mDeadlineFlushes.Load(),
		BackpressureFlushes: p.mBackpressureFlushes.Load(),
		SyncFlushes:         p.mSyncFlushes.Load(),
		MaintenanceTicks:    p.mMaintTicks.Load(),
		ViewsEvicted:        p.mEvicted.Load(),
		ViewsRebuilt:        p.mRebuilt.Load(),
		PagesDemoted:        p.mPagesDemoted.Load(),
	}
}

// LatencyHistogram snapshots the flush-latency histogram (ns).
func (p *Pilot) LatencyHistogram() obs.HistogramSnapshot { return p.latHist.Snapshot() }

// Telemetry snapshots the pilot's counters and histograms as autopilot_*
// instruments for Engine.Telemetry.
func (p *Pilot) Telemetry() obs.Snapshot {
	s := obs.NewSnapshot()
	m := p.Metrics()
	s.AddCounter("autopilot_enqueued", m.Enqueued)
	s.AddCounter("autopilot_applied", m.Applied)
	s.AddCounter("autopilot_flushes", m.Flushes)
	s.AddCounter("autopilot_count_flushes", m.CountFlushes)
	s.AddCounter("autopilot_byte_flushes", m.ByteFlushes)
	s.AddCounter("autopilot_deadline_flushes", m.DeadlineFlushes)
	s.AddCounter("autopilot_backpressure_flushes", m.BackpressureFlushes)
	s.AddCounter("autopilot_sync_flushes", m.SyncFlushes)
	s.AddCounter("autopilot_maintenance_ticks", m.MaintenanceTicks)
	s.AddCounter("autopilot_views_evicted", m.ViewsEvicted)
	s.AddCounter("autopilot_views_rebuilt", m.ViewsRebuilt)
	s.AddCounter("autopilot_pages_demoted", m.PagesDemoted)
	s.SetHistogram("autopilot_flush_latency_ns", p.latHist.Snapshot())
	s.SetHistogram("autopilot_coalesce_batch", p.batchHist.Snapshot())
	return s
}

// loop is the pilot goroutine: it reacts to intake wake-ups, arms the
// MaxFlushLatency deadline, and runs the lifecycle ticker.
func (p *Pilot) loop() {
	defer close(p.done)
	var maintC <-chan time.Time
	if p.maintTicker != nil {
		defer p.maintTicker.Stop()
		maintC = p.maintTicker.C()
	}
	var deadlineC <-chan time.Time
	for {
		select {
		case <-p.stopCh:
			p.drain(FlushStop, false)
			return
		case <-p.wake:
			n := int(p.queued.Load())
			if n == 0 {
				deadlineC = nil
				continue
			}
			if n >= p.cfg.CoalesceCount {
				p.drain(FlushCount, true)
				deadlineC = nil
				continue
			}
			if n*writeBytes >= p.cfg.CoalesceBytes {
				p.drain(FlushBytes, true)
				deadlineC = nil
				continue
			}
			if deadlineC == nil {
				deadlineC = p.clock.After(p.deadlineIn())
			}
		case <-deadlineC:
			deadlineC = nil
			if p.queued.Load() > 0 {
				p.drain(FlushDeadline, true)
			}
		case <-maintC:
			p.maintain()
		}
	}
}

// deadlineIn computes how much of MaxFlushLatency the oldest queued write
// has left.
func (p *Pilot) deadlineIn() time.Duration {
	p.oldestMu.Lock()
	oldest, ok := p.oldest, p.hasOldest
	p.oldestMu.Unlock()
	if !ok {
		return p.cfg.MaxFlushLatency
	}
	d := p.cfg.MaxFlushLatency - p.clock.Now().Sub(oldest)
	if d < 0 {
		d = 0
	}
	return d
}

// collect swaps every intake shard's buffer out under its lock and
// returns the concatenation in shard order (per-row order is preserved:
// a row's page hashes to exactly one shard).
func (p *Pilot) collect() ([]Write, time.Time) {
	var batch []Write
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		if len(sh.ws) > 0 {
			batch = append(batch, sh.ws...)
			sh.ws = sh.ws[:0]
		}
		sh.mu.Unlock()
	}
	p.queued.Add(int64(-len(batch)))
	p.oldestMu.Lock()
	oldest := p.oldest
	if p.queued.Load() > 0 {
		// Writes raced in behind the collection; restart their latency
		// clock now (approximation — at most one extra MaxFlushLatency).
		p.oldest = p.clock.Now()
	} else {
		p.hasOldest = false
	}
	p.oldestMu.Unlock()
	return batch, oldest
}

// drain applies (and, when align is set, aligns) everything queued, as
// one coalesced group commit. Serialized by drainMu so concurrent
// triggers (pilot deadline, cooperative writer, ApplyQueued) coalesce
// instead of interleaving.
func (p *Pilot) drain(reason FlushReason, align bool) {
	p.drainMu.Lock()
	defer p.drainMu.Unlock()
	batch, oldest := p.collect()
	if len(batch) == 0 {
		return
	}
	err := p.target.ApplyWrites(batch)
	if err == nil && align {
		err = p.target.AlignPending()
	}
	var lat time.Duration
	if !oldest.IsZero() {
		lat = p.clock.Now().Sub(oldest)
	}
	p.mFlushes.Add(1)
	p.mApplied.Add(uint64(len(batch)))
	switch reason {
	case FlushCount:
		p.mCountFlushes.Add(1)
	case FlushBytes:
		p.mByteFlushes.Add(1)
	case FlushDeadline:
		p.mDeadlineFlushes.Add(1)
	case FlushBackpressure:
		p.mBackpressureFlushes.Add(1)
	case FlushSync:
		p.mSyncFlushes.Add(1)
	}
	p.latHist.Observe(uint64(lat))
	p.batchHist.Observe(uint64(len(batch)))
	if err != nil {
		p.errMu.Lock()
		if p.firstErr == nil {
			p.firstErr = err
		}
		p.errMu.Unlock()
	}
	if p.cfg.OnFlush != nil {
		p.cfg.OnFlush(FlushInfo{Writes: len(batch), Reason: reason, Latency: lat, Err: err})
	}
}

// maintain runs one temperature-driven lifecycle pass: evict cold views
// (one exclusive slice for the batch), rebuild fragmented ones (one
// slice each, so readers interleave), and — on a tiered engine — demote
// the coldest unpinned views' pages under hot-tier pressure. Each duty
// reads one signal: eviction the view's age against ColdTicks, rebuilds
// its fragmentation against RebuildFrag and MinRebuildPages, demotion
// the hot tier's occupancy.
func (p *Pilot) maintain() {
	p.mMaintTicks.Add(1)
	clock, temps := p.target.ViewTemperatures()
	rep := MaintainReport{Views: len(temps)}
	tier, tiered := p.target.TierInfo()
	coldTicks := uint64(max(p.cfg.ColdTicks, 0))

	var cold []any
	var rebuild []any
	var demotable []ViewTemp
	for _, t := range temps {
		if coldTicks > 0 && clock > coldTicks && clock-t.LastUsed > coldTicks {
			cold = append(cold, t.Handle)
			continue
		}
		if p.cfg.RebuildFrag > 0 && t.Frag >= p.cfg.RebuildFrag && t.Pages >= p.cfg.MinRebuildPages {
			rebuild = append(rebuild, t.Handle)
		}
		if tiered && !t.Pinned {
			demotable = append(demotable, t)
		}
	}
	setErr := func(err error) {
		if err != nil && rep.Err == nil {
			rep.Err = err
		}
	}
	if len(cold) > 0 {
		n := p.target.EvictViews(cold)
		rep.Evicted = n
		p.mEvicted.Add(uint64(n))
	}
	for _, h := range rebuild {
		ok, err := p.target.RebuildView(h)
		if ok {
			rep.Rebuilt++
			p.mRebuilt.Add(1)
		}
		setErr(err)
	}
	if tiered && tier.Occupancy() >= tierHighWater && len(demotable) > 0 {
		// Demote coldest-first down to the low watermark. A view maps the
		// column's file pages and owns no frames, so eviction this tick
		// moved no occupancy; pages promoted back by reads in the meantime
		// are the next tick's work — the duty is a feedback loop, not a
		// transaction.
		maxPages := tier.HotFrames - int(float64(tier.HotBudget)*tierLowWater)
		if maxPages > 0 {
			sort.Slice(demotable, func(i, j int) bool {
				if demotable[i].LastUsed != demotable[j].LastUsed {
					return demotable[i].LastUsed < demotable[j].LastUsed
				}
				return demotable[i].Uses < demotable[j].Uses
			})
			handles := make([]any, len(demotable))
			for i, t := range demotable {
				handles[i] = t.Handle
			}
			n, err := p.target.DemotePages(handles, maxPages)
			rep.PagesDemoted = n
			p.mPagesDemoted.Add(uint64(n))
			setErr(err)
		}
	}
	if rep.Err != nil {
		p.errMu.Lock()
		if p.firstErr == nil {
			p.firstErr = rep.Err
		}
		p.errMu.Unlock()
	}
	if p.cfg.OnMaintain != nil {
		p.cfg.OnMaintain(rep)
	}
}
