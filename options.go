package asv

import (
	"github.com/asv-db/asv/internal/autopilot"
	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/vmsim"
)

// QueryOption configures a QueryOpt call; see Rows, Aggregate, Trace.
type QueryOption func(*core.QueryOptions)

// Rows requests materialization of the qualifying row IDs into
// QueryAnswer.Rows.
func Rows() QueryOption {
	return func(o *core.QueryOptions) { o.CollectRows = true }
}

// Aggregate requests count/sum/min/max over the qualifying values into
// QueryAnswer.Agg.
func Aggregate() QueryOption {
	return func(o *core.QueryOptions) { o.ComputeAggregate = true }
}

// Trace attaches a span tree to one QueryOpt call; the finished tree
// comes back on QueryAnswer.Trace:
//
//	ans, _ := col.QueryOpt(lo, hi, asv.Trace())
//	fmt.Print(ans.Trace)   // pin/route/scan/materialize/merge spans
//
// The tree attributes the query's wall time across epoch pinning,
// routing, per-view scans (with pages scanned and TLB-resolved pages),
// tier cold-touch stalls, and candidate
// materialization/merge. Queries without this option pay nothing: the
// untraced path is allocation-identical to a build without tracing.
func Trace() QueryOption {
	return func(o *core.QueryOptions) { o.Trace = obs.NewTrace("query") }
}

// ViewOption configures a CreateViewOpt call; see Lazy, Eager, Pinned
// and Batch.
type ViewOption func(*viewCreateOptions)

// viewCreateOptions is the accumulated option state of one CreateViewOpt
// call: per-view overrides plus the extra ranges a Batch option adds to
// the same single-scan creation.
type viewCreateOptions struct {
	lazy    bool
	hasLazy bool
	pinned  bool
	extra   []ViewRange
}

// Lazy defers the views' mapping regardless of the column's
// Config.Create.Lazy: creation records which physical page backs each
// slot and returns without mapping anything. Queries read the slots
// through the epoch's full-view capture; the first update alignment maps
// the view.
func Lazy() ViewOption {
	return func(o *viewCreateOptions) { o.lazy, o.hasLazy = true, true }
}

// Eager materializes the views in full at creation regardless of the
// column's Config.Create.Lazy — the inverse of Lazy.
func Eager() ViewOption {
	return func(o *viewCreateOptions) { o.lazy, o.hasLazy = false, true }
}

// Pinned exempts the views' pages from tier demotion: the autopilot's
// hot-tier pressure duty never moves a pinned view's pages to the
// capacity tier (the temperature-driven whole-view eviction of cold
// views still applies), so enabling tiering never slows an explicitly
// requested hot range. Views created adaptively by queries — and
// CreateViewOpt views without this option — are demotable.
func Pinned() ViewOption {
	return func(o *viewCreateOptions) { o.pinned = true }
}

// Batch adds more ranges to the same creation call: the primary
// [lo, hi] of CreateViewOpt plus every Batch range are built in one
// qualification scan of the column and published in one state swap,
// each view inheriting the call's Lazy/Eager/Pinned settings.
// Semantically identical to one CreateViewOpt call per range, at the
// cost of a single scan and publication — the many-views experiments
// stand up thousands of views this way.
func Batch(specs ...ViewRange) ViewOption {
	return func(o *viewCreateOptions) { o.extra = append(o.extra, specs...) }
}

// AutopilotConfig tunes a column's background maintenance subsystem; see
// WithAutopilot. The zero value of every field selects the documented
// default (negative values disable optional duties).
type AutopilotConfig = autopilot.Config

// WithAutopilot enables the background maintenance subsystem on a column
// configuration: Update becomes fire-and-forget (applied and aligned
// within ap.MaxFlushLatency as part of a coalesced group commit), and a
// maintenance ticker evicts cold views and rebuilds fragmented ones.
// Call with no AutopilotConfig for the
// defaults (5ms latency bound, 256-write coalescing, 50ms maintenance):
//
//	col, _ := db.CreateColumn("hot", pages, asv.WithAutopilot(asv.DefaultConfig()))
//	col.Update(row, v)        // returns immediately
//	col.Sync()                // read-your-writes barrier when needed
func WithAutopilot(cfg Config, ap ...AutopilotConfig) Config {
	a := AutopilotConfig{}
	if len(ap) > 0 {
		a = ap[0]
	}
	cfg.Autopilot = &a
	return cfg
}

// TierConfig parameterizes a column's two-tier frame budget; see
// WithTiering. The zero value disables tiering: no tier words are
// tracked, no latency is charged, and behaviour is byte-for-byte the
// single-tier column.
type TierConfig = vmsim.TierConfig

// WithTiering enables the second frame tier on a column configuration:
// the column's pages carry a vmcache-style tier+version word, cold-tier
// page accesses are charged tc.ColdMultiplier × the hot per-page scan
// cost (and promote the page back under budget), writes land pages hot,
// and — when an autopilot runs — hot-tier occupancy above its high
// watermark demotes the coldest unpinned views' pages tier-down:
//
//	cfg := asv.WithTiering(asv.WithAutopilot(asv.DefaultConfig()),
//	    asv.TierConfig{HotFrames: pages / 2})
//
// Scans validate each page through its version word (optimistic read,
// retried on a concurrent migration), so readers never block on tier
// migration and answers are byte-identical to the single-tier column.
func WithTiering(cfg Config, tc TierConfig) Config {
	cfg.Tiering = &tc
	return cfg
}
