package main

import (
	"github.com/asv-db/asv/internal/xrand"
)

// domain is the value domain of every column ([0, 100M], the paper's §3).
const domain = 100_000_000

// The four workloads, in the order BENCHMARK.json lists them.
const (
	adaptCold   = "adapt_cold"
	steadyRead  = "steady_read"
	mixedUpdate = "mixed_update"
	serveHTTP   = "serve_http"
)

var workloadNames = []string{adaptCold, steadyRead, mixedUpdate, serveHTTP}

// scale fixes the sizes of one invocation. Column sizes and per-op shapes
// never depend on the run length; only the number of timed operations
// does. fullScale is what BENCHMARK.json measures; smokeScale keeps every
// code path and sample floor at 512 pages so the smoke test runs in
// seconds.
type scale struct {
	adaptPages, steadyPages, mixedPages, servePages, ladderPages int

	warmQueries  int // adaptive queries of one adapt_cold repetition and of every warm-up
	minReps      int // adapt_cold repetitions at least, whatever the clock says
	setupRepeats int // instances set up per run on the other workloads; the last one is measured

	cycleRows, cycleQueries int // one mixed_update cycle: rows written and flushed, then queries
	tailCycles, tailRows    int // write tail of the read workloads
	serveTailCycles         int // serve_http's, whose flushes are short enough to afford more
	tailPerRep              int // adapt_cold: tail cycles after each repetition
	hotRanges               int // serve_http hot ranges per tenant

	minQueries, minCycles int // sample floors of a timed pass: p90 needs ten samples beyond it

	// Fixed op counts of the traced pass and of its untraced twin.
	prefixQueries, prefixCycles, prefixRequests int

	ladderQueries, ladderReplays int
}

func fullScale() scale {
	return scale{
		adaptPages: 16384, steadyPages: 16384, mixedPages: 16384, servePages: 16384, ladderPages: 8192,
		warmQueries: 400, minReps: 6, setupRepeats: 3,
		cycleRows: 128, cycleQueries: 8, tailCycles: 210, serveTailCycles: 420, tailRows: 16, tailPerRep: 35, hotRanges: 64,
		minQueries: 400, minCycles: 110,
		prefixQueries: 1000, prefixCycles: 60, prefixRequests: 8000,
		ladderQueries: 64, ladderReplays: 3,
	}
}

func smokeScale() scale {
	return scale{
		adaptPages: 512, steadyPages: 512, mixedPages: 512, servePages: 512, ladderPages: 512,
		warmQueries: 100, minReps: 3, setupRepeats: 3,
		cycleRows: 32, cycleQueries: 10, tailCycles: 104, serveTailCycles: 104, tailRows: 4, tailPerRep: 21, hotRanges: 8,
		minQueries: 400, minCycles: 110,
		prefixQueries: 300, prefixCycles: 20, prefixRequests: 400,
		ladderQueries: 16, ladderReplays: 3,
	}
}

// Seed streams: every generator, query stream and write stream of a run
// draws from its own stream of the one --seed.
const (
	streamFill = iota + 1
	streamWarm
	streamQueries
	streamWrites
	streamTail
	streamHot
	streamLadder
)

// sub derives an independent seed from (seed, stream, index) with one
// splitmix64 step each, so neighbouring seeds do not start correlated
// xrand states.
func sub(seed uint64, stream, index int) uint64 {
	s := seed
	s = xrand.Splitmix64(&s) + uint64(stream)*0x9e3779b97f4a7c15
	s = xrand.Splitmix64(&s) + uint64(index)
	return xrand.Splitmix64(&s)
}

// metricDef names one metric of BENCHMARK.json; better and bound live
// only in that file. exact marks the counts of the traced pass, which
// repeat exactly from run to run on the single-client workloads.
type metricDef struct {
	name, unit string
	exact      bool
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "queries_per_s", unit: "1/s"},
	{name: "query_p50_ms", unit: "ms"},
	{name: "query_p90_ms", unit: "ms"},
	{name: "update_rows_per_s", unit: "1/s"},
	{name: "flush_p50_ms", unit: "ms"},
	{name: "flush_p90_ms", unit: "ms"},
	{name: "mem_sys_mb", unit: "MiB"},
}

// perLayer lists every --trace 1 metric: the traced pass first, then the
// ladder rung by rung. A metric a workload does not exercise reads 0 there
// (README.md says which).
var perLayer = []metricDef{
	// traced pass: time shares of op wall
	{name: "core.pin_self_share", unit: "ratio"},
	{name: "viewset.route_self_share", unit: "ratio"},
	{name: "core.scan_self_share", unit: "ratio"},
	{name: "view.materialize_self_share", unit: "ratio"},
	{name: "core.merge_self_share", unit: "ratio"},
	{name: "core.unattributed_share", unit: "ratio"},
	{name: "core.flush_wall_share", unit: "ratio"},
	{name: "serve.client_self_share", unit: "ratio"},
	{name: "serve.handler_share", unit: "ratio"},
	{name: "obs.trace_overhead_pct", unit: "%"},
	// traced pass: counts
	{name: "core.pages_scanned_per_query", unit: "count", exact: true},
	{name: "core.full_view_query_share", unit: "ratio", exact: true},
	{name: "core.views_used_per_query", unit: "count", exact: true},
	{name: "core.candidate_kept_share", unit: "ratio", exact: true},
	{name: "core.publishes_per_kquery", unit: "count", exact: true},
	{name: "view.views_end", unit: "count", exact: true},
	{name: "vmsim.mmap_calls_per_query", unit: "count", exact: true},
	{name: "vmsim.pages_mapped_per_query", unit: "count", exact: true},
	{name: "vmsim.demand_maps_per_query", unit: "count", exact: true},
	{name: "vmsim.vma_count_end", unit: "count", exact: true},
	{name: "vmsim.frames_per_user_page", unit: "ratio", exact: true},
	{name: "core.pages_realigned_per_update_row", unit: "count", exact: true},
	{name: "vmsim.mmap_calls_per_update_row", unit: "count", exact: true},
	// ladder
	{name: "storage.scanfilter_ns_per_page", unit: "ns"},
	{name: "storage.collect_ns_per_page", unit: "ns"},
	{name: "storage.fullscan_ns_per_page", unit: "ns"},
	{name: "storage.fullscan_overhead_ns_per_page", unit: "ns"},
	{name: "storage.fill_ns_per_page", unit: "ns"},
	{name: "vmsim.page_fetch_ns_per_page", unit: "ns"},
	{name: "vmsim.map_ns_per_page", unit: "ns"},
	{name: "vmsim.tier_cold_ns_per_page", unit: "ns"},
	{name: "vmsim.tier_stall_share", unit: "ratio"},
	{name: "core.baseline_ns_per_page", unit: "ns"},
	{name: "core.baseline_overhead_ns_per_page", unit: "ns"},
	{name: "core.routed_ns_per_page", unit: "ns"},
	{name: "core.routed_overhead_ns_per_page", unit: "ns"},
	{name: "core.routed_over_scanfilter_ratio", unit: "ratio"},
	{name: "core.aggregate_ns_per_page", unit: "ns"},
	{name: "core.aggregate_overhead_ns_per_page", unit: "ns"},
	{name: "core.rows_ns_per_page", unit: "ns"},
	{name: "core.rows_overhead_ns_per_page", unit: "ns"},
	{name: "core.adapt_overhead_us_per_query", unit: "us"},
	{name: "core.update_us_per_row", unit: "us"},
	{name: "core.flush_us_per_row", unit: "us"},
	{name: "core.flush_fixed_us", unit: "us"},
	{name: "view.create_us_per_page", unit: "us"},
	{name: "view.create_lazy_us", unit: "us"},
	{name: "view.batch_create_us_per_view", unit: "us"},
	{name: "autopilot.enqueue_ns_per_row", unit: "ns"},
	{name: "autopilot.sync_ms", unit: "ms"},
	{name: "core.hot_query_us", unit: "us"},
	{name: "serve.shard_overhead_us", unit: "us"},
	{name: "serve.scatter2_overhead_us", unit: "us"},
	{name: "serve.handler_overhead_us", unit: "us"},
	{name: "serve.http_overhead_us", unit: "us"},
	{name: "serve.rows_encode_us_per_krow", unit: "us"},
}
