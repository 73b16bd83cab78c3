// Package core implements the adaptive storage layer of the paper: for
// each column it maintains the physical column, the full virtual view, and
// a set of partial virtual views that are created and maintained
// adaptively as a side product of query processing (§2, Listing 1), with
// query routing in single-view and multi-view mode (§2.1) and batched
// update alignment (§2.4, §2.5).
package core

import (
	"fmt"

	"github.com/asv-db/asv/internal/autopilot"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/viewset"
	"github.com/asv-db/asv/internal/vmsim"
)

// Mode selects the query-routing mode of §2.1.
type Mode int

const (
	// SingleView answers each query from exactly one view that fully
	// covers the predicate, preferring the view indexing the fewest pages.
	SingleView Mode = iota
	// MultiView answers a query from multiple partial views whenever they
	// fully cover the requested range in conjunction, deduplicating shared
	// physical pages via a bitvector.
	MultiView
)

// String renders the mode name.
func (m Mode) String() string {
	switch m {
	case SingleView:
		return "single-view"
	case MultiView:
		return "multi-view"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// MultiViewPolicy decides how multi-view covers compete with single views.
type MultiViewPolicy int

const (
	// PreferMulti is the paper's current policy: whenever multiple partial
	// views cover the query range in conjunction, use them "instead of
	// directing the query to a single (potentially larger) view" (§2.1).
	PreferMulti MultiViewPolicy = iota
	// CostBased implements the paper's stated future work: choose between
	// the multi-view cover and the cheapest single covering view "based on
	// the covered value ranges and the number of indexed pages" (§2.1).
	CostBased
)

// String renders the policy name.
func (p MultiViewPolicy) String() string {
	switch p {
	case PreferMulti:
		return "prefer-multi"
	case CostBased:
		return "cost-based"
	default:
		return fmt.Sprintf("MultiViewPolicy(%d)", int(p))
	}
}

// LimitPolicy re-exports the view-limit behaviour (freeze vs evict).
type LimitPolicy = viewset.LimitPolicy

// Limit policies.
const (
	// Freeze stops all candidate generation once MaxViews is reached —
	// the paper's behaviour (§2.2).
	Freeze = viewset.Freeze
	// EvictLRU keeps adapting at the limit by evicting the
	// least-recently-routed partial view to make room.
	EvictLRU = viewset.EvictLRU
)

// Config parameterizes an Engine. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// Mode is the query-routing mode (§2.1).
	Mode Mode
	// MultiViewPolicy selects how multi-view covers compete with single
	// views (MultiView mode only).
	MultiViewPolicy MultiViewPolicy
	// Limit selects what happens when MaxViews is reached: Freeze (paper)
	// or EvictLRU (extension).
	Limit LimitPolicy
	// MaxViews caps the number of partial views; once reached, candidate
	// generation stops entirely (§2.2). The paper uses 100 for the
	// single-view experiments, 200/20 for the multi-view ones.
	MaxViews int
	// DiscardTolerance is the paper's d: a candidate covering a subset of
	// an existing view is discarded even if it indexes up to d fewer
	// pages. The paper evaluates with d = 0.
	DiscardTolerance int
	// ReplaceTolerance is the paper's r: a candidate covering a superset
	// of an existing view replaces it if it indexes at most r more pages.
	// The paper evaluates with r = 0.
	ReplaceTolerance int
	// Create selects the §2.3 view-creation optimizations.
	Create view.CreateOptions
	// LazyViews defers view materialization to first access: creation
	// records which physical page backs each slot and returns without
	// mapping anything; a slot's demand mmap and soft-TLB resolution
	// happen on the first query that touches it (fault-driven
	// materialization, see internal/view/lazy.go). Creation then costs
	// the qualification scan plus one virtual reservation regardless of
	// how many pages qualify, and views that are created but never
	// queried never map a page. Sets Create.Lazy on every engine-built
	// view; update alignment and explicit warming still materialize in
	// full. On by default — set Create explicitly and leave LazyViews
	// false to reproduce the eager creation path.
	LazyViews bool
	// Parallelism is the number of page-sharded workers a single query's
	// scan uses: 0 scans serially (the paper's single-threaded model), a
	// positive value selects that many workers, and a negative value
	// selects GOMAXPROCS. Parallel scans reduce shard results in page
	// order with commutative aggregates, so answers and adaptive side
	// effects are identical to serial. Update alignment fans out across
	// the same worker count, one view per worker, with per-view stat
	// partials reduced in view order — again identical to serial.
	// Inter-query concurrency (many clients calling QueryOpt at once) is
	// independent of this knob and always available.
	Parallelism int
	// UpdateShards is the number of pending-buffer shards the write path
	// hashes physical pages across: concurrent Update callers append
	// under per-shard locks instead of one engine-wide buffer lock.
	// FlushUpdates merges the shards into a single deterministic batch
	// (page-sorted, arrival order within a page), so the shard count
	// never changes query answers or alignment results. 0 (and any
	// negative value) selects GOMAXPROCS; 1 reproduces the single-buffer
	// write path.
	UpdateShards int
	// Adaptive enables partial-view creation and routing. When false the
	// engine answers every query with a full scan — the paper's baseline.
	Adaptive bool
	// Autopilot, when non-nil, starts the engine's background maintenance
	// subsystem (internal/autopilot): bounded-latency write coalescing
	// (Update becomes fire-and-forget and is applied + aligned within
	// Autopilot.MaxFlushLatency), adaptive parallelism (scan and
	// alignment fan-out chosen per operation by an EWMA cost model,
	// bounded by Parallelism), and a temperature-driven view lifecycle
	// (cold partials evicted, fragmented ones rebuilt, hot soft-TLBs
	// pre-warmed in exclusive-room slices). Engine.Close stops it. Nil
	// keeps every maintenance action inline, the pre-autopilot behaviour.
	Autopilot *autopilot.Config
	// JournalEvents, when positive, enables the engine's event journal: a
	// fixed-size lock-free ring (rounded up to a power of two, minimum 64)
	// of typed engine events — epoch publications and retirements,
	// autopilot duty brackets, tier demotion/promotion batches, view
	// lifecycle transitions, room-mode handovers. Zero (the default)
	// disables the journal entirely; every recording site is then one nil
	// pointer test. Drain with Engine.Journal().Events().
	JournalEvents int
	// Tiering, when non-nil and enabled, attaches a second, slower frame
	// tier to the column (internal/vmsim tier map): pages demoted below
	// the hot-tier budget are charged a simulated capacity-tier latency
	// on access, scans validate pages through the vmcache-style
	// versioned/optimistic word, and the autopilot (when running) demotes
	// the coldest unpinned views' pages under hot-tier pressure. Nil or
	// a zero-value config keeps the single-tier behaviour byte-for-byte.
	Tiering *vmsim.TierConfig
}

// DefaultConfig returns the paper's configuration: single-view mode, up to
// 100 views, zero tolerances, both creation optimizations enabled.
func DefaultConfig() Config {
	return Config{
		Mode:      SingleView,
		MaxViews:  100,
		Create:    view.AllOptimizations,
		LazyViews: true,
		Adaptive:  true,
	}
}

// BaselineConfig returns a configuration that answers every query with a
// full column scan (the "Fullscan" baseline of §3.2).
func BaselineConfig() Config {
	c := DefaultConfig()
	c.Adaptive = false
	return c
}

func (c Config) validate() error {
	if c.MaxViews < 0 {
		return fmt.Errorf("core: negative MaxViews %d", c.MaxViews)
	}
	if c.DiscardTolerance < 0 || c.ReplaceTolerance < 0 {
		return fmt.Errorf("core: negative tolerance (d=%d, r=%d)", c.DiscardTolerance, c.ReplaceTolerance)
	}
	if c.Mode != SingleView && c.Mode != MultiView {
		return fmt.Errorf("core: unknown mode %d", int(c.Mode))
	}
	if c.MultiViewPolicy != PreferMulti && c.MultiViewPolicy != CostBased {
		return fmt.Errorf("core: unknown multi-view policy %d", int(c.MultiViewPolicy))
	}
	if c.Limit != Freeze && c.Limit != EvictLRU {
		return fmt.Errorf("core: unknown limit policy %d", int(c.Limit))
	}
	if c.Autopilot != nil {
		if err := c.Autopilot.Validate(); err != nil {
			return err
		}
	}
	if c.Tiering != nil {
		if c.Tiering.HotFrames < 0 {
			return fmt.Errorf("core: negative tier hot budget %d", c.Tiering.HotFrames)
		}
		if c.Tiering.ColdMultiplier < 0 {
			return fmt.Errorf("core: negative tier cold multiplier %g", c.Tiering.ColdMultiplier)
		}
	}
	return nil
}
