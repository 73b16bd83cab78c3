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

// Config parameterizes an Engine. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// Mode is the query-routing mode (§2.1).
	Mode Mode
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
	// Create selects the §2.3 view-creation optimizations. DefaultConfig
	// also sets Create.Lazy: creation records which physical page backs
	// each slot and returns without mapping anything. Queries read a lazy
	// view's slots through the epoch's full-view capture, so no read maps
	// it; the first update alignment maps it in runs of consecutive pages
	// (see internal/view/lazy.go). Clear Create.Lazy to reproduce the
	// eager creation path.
	Create view.CreateOptions
	// Adaptive enables partial-view creation and routing. When false the
	// engine answers every query with a full scan — the paper's baseline.
	Adaptive bool
	// Autopilot, when non-nil, starts the engine's background maintenance
	// subsystem (internal/autopilot): bounded-latency write coalescing
	// (Update becomes fire-and-forget and is applied + aligned within
	// Autopilot.MaxFlushLatency) and a temperature-driven view lifecycle
	// (cold partials evicted and fragmented ones rebuilt in exclusive-lock
	// slices, and on a tiered engine cold pages demoted). Engine.Close
	// stops it. Nil keeps every maintenance action inline, the
	// pre-autopilot behaviour.
	Autopilot *autopilot.Config
	// JournalEvents, when positive, enables the engine's event journal: a
	// fixed-size lock-free ring (rounded up to a power of two, minimum 64)
	// of typed engine events — epoch publications and retirements,
	// autopilot duty brackets, tier demotion/promotion batches, view
	// lifecycle transitions. Zero (the default)
	// disables the journal entirely; every recording site is then one nil
	// pointer test. Drain with Engine.Journal().Events().
	JournalEvents int
	// Tiering, when non-nil and enabled, attaches a second, slower frame
	// tier to the column (internal/vmsim tier map): pages demoted below
	// the hot-tier budget are charged a simulated capacity-tier latency
	// on access, scans validate pages through the vmcache-style
	// versioned/optimistic word, and the autopilot (when running) demotes
	// the coldest unpinned views' pages once hot-tier occupancy reaches
	// 0.9 of the budget, down to 0.7. Nil or a zero-value config keeps the
	// single-tier behaviour byte-for-byte.
	Tiering *vmsim.TierConfig
}

// DefaultConfig returns the paper's configuration: single-view mode, up to
// 100 views, zero tolerances, both creation optimizations enabled, plus
// lazy view creation.
func DefaultConfig() Config {
	create := view.AllOptimizations
	create.Lazy = true
	return Config{
		Mode:     SingleView,
		MaxViews: 100,
		Create:   create,
		Adaptive: true,
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
