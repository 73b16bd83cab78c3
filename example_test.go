package asv_test

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	asv "github.com/asv-db/asv"
)

// Example opens a DB, creates and fills a column, runs range queries,
// and watches partial views appear as a side product of query
// processing.
func Example() {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// A 4096-page column holds ~2M 8-byte values (16 MiB). Clustered data
	// (here: a sine wave over the page sequence, like cyclic sensor
	// readings) is where storage views shine — value ranges map to small
	// page subsets.
	col, err := db.CreateColumn("numbers", 4096, asv.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := col.Fill(asv.Sine(1, 0, 100_000_000, 100)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("column %q: %d rows in %d pages\n", col.Name(), col.Rows(), col.NumPages())

	// The first query has no views to use: it full-scans, and builds a
	// partial view covering its range as a side product.
	res, err := col.QueryOpt(10_000_000, 12_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query 1: %d rows, scanned %d pages (full view: %v)\n",
		res.Count, res.PagesScanned, res.UsedFullView)

	// A second query inside the same range is answered from the new view.
	res, err = col.QueryOpt(10_500_000, 11_500_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query 2: %d rows, scanned %d pages (full view: %v)\n",
		res.Count, res.PagesScanned, res.UsedFullView)

	// Updates go through the full view and are folded into the partial
	// views in batches.
	if err := col.Update(0, 10_999_999); err != nil {
		log.Fatal(err)
	}
	report, err := col.FlushUpdates()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update flush: %d update(s), %d page(s) added to views\n",
		report.BatchSize, report.PagesAdded)

	for i, v := range col.Views() {
		fmt.Printf("view %d: [%d, %d] over %d pages\n", i, v.Lo, v.Hi, v.Pages)
	}

	// One options-based entry point unifies the read API: request row IDs
	// and aggregates alongside the usual telemetry in a single scan.
	ans, err := col.QueryOpt(10_000_000, 12_000_000, asv.Rows(), asv.Aggregate())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("queryopt: %d rows materialized, min %d, max %d, mean %.0f\n",
		ans.Rows.Len(), ans.Agg.Min, ans.Agg.Max, ans.Agg.Mean())
	fmt.Printf("memory in use: %d MiB\n", db.MemoryInUse()/(1<<20))
	// Output:
	// column "numbers": 2084864 rows in 4096 pages
	// query 1: 41664 rows, scanned 4096 pages (full view: true)
	// query 2: 21620 rows, scanned 229 pages (full view: false)
	// update flush: 1 update(s), 2 page(s) added to views
	// view 0: [9346102, 12000612] over 230 pages
	// view 1: [9346102, 11989147] over 165 pages
	// queryopt: 41665 rows materialized, min 10000062, max 11999958, mean 10844962
	// memory in use: 16 MiB
}

// ExampleTable runs a dashboard over a multi-column trip table (the
// paper's Figure 1). Every column carries its own adaptive view layer;
// conjunctive predicates are answered per column via the best views and
// intersected as row sets, so repeating the dashboard's filter
// combinations trains the views of all involved columns at once.
func ExampleTable() {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	const pages = 4096 // ~2M trips
	tbl, err := db.CreateTable("trips", pages,
		[]string{"distance_m", "fare_cents", "hour"}, asv.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	// Trip distances cluster by time of day (sine), fares follow distance
	// ordering loosely (linear), and the hour column cycles.
	gens := map[string]asv.Generator{
		"distance_m": asv.Sine(1, 0, 50_000, 256),
		"fare_cents": asv.Linear(2, 100, 20_000, pages),
		"hour":       asv.Sine(3, 0, 23, 512),
	}
	for _, cn := range tbl.Columns() {
		col, _ := tbl.Column(cn)
		if err := col.Fill(gens[cn]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("table %q: %d rows x %d columns\n", tbl.Name(), tbl.Rows(), len(tbl.Columns()))

	// A dashboard keeps asking variations of the same filter combination.
	filters := []struct {
		name  string
		preds []asv.Predicate
	}{
		{"short cheap trips", []asv.Predicate{
			{Column: "distance_m", Lo: 0, Hi: 2_000},
			{Column: "fare_cents", Lo: 100, Hi: 2_000},
		}},
		{"long rush-hour trips", []asv.Predicate{
			{Column: "distance_m", Lo: 30_000, Hi: 50_000},
			{Column: "hour", Lo: 7, Hi: 9},
		}},
		{"mid-range evening", []asv.Predicate{
			{Column: "distance_m", Lo: 10_000, Hi: 20_000},
			{Column: "fare_cents", Lo: 5_000, Hi: 9_000},
			{Column: "hour", Lo: 18, Hi: 21},
		}},
	}

	for round := 0; round < 3; round++ {
		fmt.Printf("\nround %d:\n", round)
		for _, f := range filters {
			res, err := tbl.Select(f.preds...)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-22s %7d rows  (%5d pages scanned across %d view routings)\n",
				f.name, res.Rows.Len(), res.PagesScanned, res.ViewsUsed)
		}
	}

	// Each table column is the catalog column "trips.<name>".
	fmt.Println("\nper-column view sets after training:")
	for _, cn := range tbl.Columns() {
		col, _ := db.Column("trips." + cn)
		views := col.Views()
		fmt.Printf("  %-12s %d views\n", cn, len(views))
		for _, v := range views {
			fmt.Printf("    [%10d, %10d] %5d pages\n", v.Lo, v.Hi, v.Pages)
		}
	}
	// Output:
	// table "trips": 2084864 rows x 3 columns
	//
	// round 0:
	//   short cheap trips        16609 rows  ( 8192 pages scanned across 2 view routings)
	//   long rush-hour trips     89584 rows  ( 8192 pages scanned across 2 view routings)
	//   mid-range evening            0 rows  (12288 pages scanned across 3 view routings)
	//
	// round 1:
	//   short cheap trips        16609 rows  ( 1016 pages scanned across 2 view routings)
	//   long rush-hour trips     89584 rows  ( 2192 pages scanned across 2 view routings)
	//   mid-range evening            0 rows  ( 2217 pages scanned across 3 view routings)
	//
	// round 2:
	//   short cheap trips        16609 rows  ( 1016 pages scanned across 2 view routings)
	//   long rush-hour trips     89584 rows  ( 2192 pages scanned across 2 view routings)
	//   mid-range evening            0 rows  ( 2217 pages scanned across 3 view routings)
	//
	// per-column view sets after training:
	//   distance_m   3 views
	//     [         0,       2169]   624 pages
	//     [     29450, 18446744073709551615]  1840 pages
	//     [      9922,      20549]   672 pages
	//   fare_cents   2 views
	//     [         0,       2003]   392 pages
	//     [      4997,       9004]   825 pages
	//   hour         2 views
	//     [         7,          9]   352 pages
	//     [        18,         21]   720 pages
}

// ExampleColumn_multiView runs fixed-selectivity analytics in multi-view
// mode (§2.1). A fleet-monitoring dashboard slices a metric into
// fixed-width windows at arbitrary positions; no single view covers
// every window, but once the adaptive layer has accumulated overlapping
// partial views, queries are answered by stitching several of them — the
// behaviour Figure 5 plots.
func ExampleColumn_multiView() {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	cfg := asv.DefaultConfig()
	cfg.Mode = asv.MultiView
	cfg.MaxViews = 200

	const pages = 8192
	const domain = 100_000_000
	col, err := db.CreateColumn("latency_us", pages, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Periodically clustered latencies (load cycles).
	if err := col.Fill(asv.Sine(3, 0, domain, 100)); err != nil {
		log.Fatal(err)
	}

	// 1%-wide windows at pseudo-random positions.
	const windows = 300
	width := uint64(domain / 100)
	stitched, fullScans := 0, 0
	maxViews := 0
	pos := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < windows; i++ {
		pos = pos*6364136223846793005 + 1442695040888963407 // LCG positions
		lo := pos % (domain - width)
		res, err := col.QueryOpt(lo, lo+width)
		if err != nil {
			log.Fatal(err)
		}
		if res.UsedFullView {
			fullScans++
		}
		if res.ViewsUsed > 1 {
			stitched++
		}
		if res.ViewsUsed > maxViews {
			maxViews = res.ViewsUsed
		}
		if i < 3 || i >= windows-3 {
			fmt.Printf("window %3d [%8d, %8d]: %6d rows via %d view(s), %4d pages\n",
				i, lo, lo+width, res.Count, res.ViewsUsed, res.PagesScanned)
		}
		if i == 3 {
			fmt.Println("...")
		}
	}

	fmt.Printf("\n%d/%d windows answered by stitching multiple views (max %d views per query)\n",
		stitched, windows, maxViews)
	fmt.Printf("%d/%d windows still needed a full scan\n", fullScans, windows)
	fmt.Printf("partial views held: %d\n", len(col.Views()))
	// Output:
	// window   0 [ 4538048,  5538048]:  65799 rows via 1 view(s), 8192 pages
	// window   1 [76592399, 77592399]:  26602 rows via 1 view(s), 8192 pages
	// window   2 [22676338, 23676338]:  26585 rows via 1 view(s), 8192 pages
	// ...
	// window 297 [23243767, 24243767]:  26639 rows via 1 view(s),  164 pages
	// window 298 [78453626, 79453626]:  26763 rows via 1 view(s),  164 pages
	// window 299 [ 4255873,  5255873]:  65945 rows via 1 view(s),  492 pages
	//
	// 75/300 windows answered by stitching multiple views (max 3 views per query)
	// 49/300 windows still needed a full scan
	// partial views held: 93
}

// ExampleColumn_Snapshot pins an engine epoch and keeps reading a
// stable, repeatable view of a column while writers update, flush, and
// realign the views underneath. Epoch-routed reads never take the
// engine lock, so the pinned reader is immune to — and never stalls
// behind — alignment.
func ExampleColumn_Snapshot() {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	col, err := db.CreateColumn("readings", 2048, asv.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := col.FillParallel(asv.Sine(7, 0, 100_000_000, 100)); err != nil {
		log.Fatal(err)
	}

	// Warm up the adaptive layer: a couple of queries grow views.
	const lo, hi = 20_000_000, 24_000_000
	if _, err := col.QueryOpt(lo, hi); err != nil {
		log.Fatal(err)
	}

	// Pin the current epoch. Everything the snapshot can reach — the view
	// set as routed right now and every page frame behind it — is frozen
	// for this handle; writers copy-on-write around it.
	snap, err := col.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	defer snap.Close()

	before, err := snap.QueryOpt(lo, hi, asv.Aggregate())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pinned:   %d rows in [%d, %d], sum %d\n", before.Count, lo, hi, before.Sum)

	// A writer overwrites rows and flushes — alignment rewires view pages
	// and publishes a new epoch. The pinned handle does not move.
	for row := 0; row < 50_000; row += 7 {
		if err := col.Update(row, 99_000_000); err != nil {
			log.Fatal(err)
		}
	}
	report, err := col.FlushUpdates()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mutated:  %d updates flushed, %d dirty pages, +%d/-%d view pages\n",
		report.BatchSize, report.DirtyPages, report.PagesAdded, report.PagesRemoved)

	again, err := snap.QueryOpt(lo, hi, asv.Aggregate())
	if err != nil {
		log.Fatal(err)
	}
	live, err := col.QueryOpt(lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pinned:   %d rows, sum %d (repeatable: %v)\n",
		again.Count, again.Sum, again.Count == before.Count && again.Sum == before.Sum)
	fmt.Printf("live:     %d rows, sum %d (moved with the writes)\n", live.Count, live.Sum)
	// Output:
	// pinned:   29625 rows in [20000000, 24000000], sum 651380500432
	// mutated:  7143 updates flushed, 99 dirty pages, +0/-0 view pages
	// pinned:   29625 rows, sum 651380500432 (repeatable: true)
	// live:     29411 rows, sum 646673121285 (moved with the writes)
}

// ExampleGeneratorByName walks the generator family beyond the paper's
// four distributions: one column per registered distribution, filled
// with the parallel fill path, and the same query fired at each. It
// shows how the adaptive layer reacts to value skew (zipf), a hot region
// (hotspot), per-page locality (clustered) and a sliding window
// (shifted); on uniform data no view can beat the full scan.
func ExampleGeneratorByName() {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	const (
		pages  = 4096
		domain = 100_000_000
	)

	fmt.Printf("%-10s %8s %14s %12s\n", "dist", "rows", "pages scanned", "views after")
	for _, name := range asv.GeneratorNames() {
		g, err := asv.GeneratorByName(name, 42, 0, domain, pages)
		if err != nil {
			log.Fatal(err)
		}
		col, err := db.CreateColumn(name, pages, asv.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		if err := col.FillParallel(g); err != nil {
			log.Fatal(err)
		}

		// The same mid-domain range twice: the first query adapts, the
		// second harvests the view.
		if _, err := col.QueryOpt(40_000_000, 42_000_000); err != nil {
			log.Fatal(err)
		}
		res, err := col.QueryOpt(40_000_000, 42_000_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %8d %14d %12d\n", name, res.Count, res.PagesScanned, len(col.Views()))
	}
	// Output:
	// dist           rows  pages scanned  views after
	// clustered     40544            142            1
	// hotspot        4147           2609            1
	// linear        41692             83            1
	// shifted       41968            205            1
	// sine          26458             81            1
	// sparse         4325            429            1
	// uniform       41404           4096            0
	// zipf           9849           3703            1
}

// ExampleColumn_QueryOpt is the paper's motivating scenario: clustered
// time-series data (daily temperature cycles) queried repeatedly over
// operational value ranges. The adaptive layer turns the recurring
// ranges into partial views, so the pages each dashboard query scans
// collapse over the sequence — the effect Figure 4 plots.
func ExampleColumn_QueryOpt() {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// One month of sensor readings: values cycle like a daily temperature
	// curve (sine over the page sequence, one "day" = 128 pages), in
	// milli-degrees from -20000 (encoded 0) to 45000 (encoded 65000000).
	const pages = 8192
	col, err := db.CreateColumn("temperature_mC", pages, asv.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := col.Fill(asv.Sine(7, 0, 65_000_000, 128)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d readings (%d pages)\n", col.Rows(), col.NumPages())

	// Operational dashboards ask the same kinds of questions again and
	// again: frost alerts, comfort band, overheating.
	bands := []struct {
		name   string
		lo, hi uint64
	}{
		{"frost     (< 0 deg)", 0, 20_000_000},
		{"comfort   (18-26 deg)", 38_000_000, 46_000_000},
		{"overheat  (> 35 deg)", 55_000_000, 65_000_000},
	}

	fmt.Println("\nround  band                     rows      pages")
	const rounds = 8
	for round := 0; round < rounds; round++ {
		for _, b := range bands {
			res, err := col.QueryOpt(b.lo, b.hi)
			if err != nil {
				log.Fatal(err)
			}
			if round == 0 || round == rounds-1 {
				fmt.Printf("%5d  %-22s %8d   %6d\n", round, b.name, res.Count, res.PagesScanned)
			}
		}
	}

	stats := col.Stats()
	fmt.Printf("\nviews created: %d, queries: %d, pages scanned in total: %d\n",
		stats.ViewsCreated, stats.Queries, stats.PagesScanned)
	for i, v := range col.Views() {
		fmt.Printf("  view %d: values [%d, %d] -> %d pages\n", i, v.Lo, v.Hi, v.Pages)
	}
	// Output:
	// ingested 4169728 readings (8192 pages)
	//
	// round  band                     rows      pages
	//     0  frost     (< 0 deg)     1561693     8192
	//     0  comfort   (18-26 deg)    349001     8192
	//     0  overheat  (> 35 deg)    1068940     8192
	//     7  frost     (< 0 deg)     1561693     3136
	//     7  comfort   (18-26 deg)    349001      896
	//     7  overheat  (> 35 deg)    1068940     2240
	//
	// views created: 3, queries: 24, pages scanned in total: 68480
	//   view 0: values [0, 20535453] -> 3136 pages
	//   view 1: values [36701173, 46804778] -> 896 pages
	//   view 2: values [54133396, 18446744073709551615] -> 2240 pages
}

// ExampleColumn_FlushUpdates is the paper's batched view maintenance
// (§2.4/§2.5). An order table keeps a hot view over "open" order keys
// while a write stream mutates rows. Each FlushUpdates realigns the view
// in one pass — parse the (simulated) maps file once, then add or remove
// exactly the affected pages — and rebuilding the view from scratch
// lands on the same pages. A final storm pushes the same kind of stream
// through four concurrent writers: the write path is sharded by physical
// page, so parallel UpdateBatch callers serialize only where their rows
// share a page group, and one flush realigns everything.
func ExampleColumn_FlushUpdates() {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Order keys 0..1B; the "hot" orders live in [0, 300_000] — a narrow
	// slice, so only a small fraction of pages carries one.
	const (
		pages        = 4096
		domain       = 1_000_000_000
		hotLo, hotHi = 0, 300_000
	)
	col, err := db.CreateColumn("order_status", pages, asv.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := col.Fill(asv.Uniform(11, 0, domain)); err != nil {
		log.Fatal(err)
	}

	// Pre-warm a view over the hot range, as an operator might.
	if err := col.CreateViewOpt(hotLo, hotHi); err != nil {
		log.Fatal(err)
	}
	v := col.Views()[0]
	fmt.Printf("hot view over [%d, %d]: %d pages\n", v.Lo, v.Hi, v.Pages)

	// A write stream closes and opens orders: some rows enter the hot
	// range, some leave it.
	rng := uint64(0xdeadbeef)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng % n
	}
	for b := 0; b < 5; b++ {
		for i := 0; i < 20_000; i++ {
			if err := col.Update(int(next(uint64(col.Rows()))), next(domain)); err != nil {
				log.Fatal(err)
			}
		}
		rep, err := col.FlushUpdates()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("batch %d: %d updates over %d pages -> +%d/-%d view pages\n",
			b, rep.BatchSize, rep.DirtyPages, rep.PagesAdded, rep.PagesRemoved)
	}

	// The alternative: rebuild the view from scratch (the "New" bar in
	// the paper's Figure 7). Alignment must have reached the same pages.
	aligned := col.Views()[0].Pages
	if err := col.RebuildViews(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aligned view: %d pages, rebuilt from scratch: %d pages\n", aligned, col.Views()[0].Pages)
	res, err := col.QueryOpt(hotLo, hotHi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hot orders: %d (scanned %d pages via the view)\n", res.Count, res.PagesScanned)

	// Four writers push group commits of 64 rows in parallel. Writer w
	// owns the rows ≡ w (mod 4), so the final column state — and every
	// count below — does not depend on how the writers interleave.
	const writers, perWriter = 4, 10_000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := uint64(w + 1)
			buf := make([]asv.RowWrite, 0, 64)
			for i := 0; i < perWriter; i++ {
				s = s*6364136223846793005 + 1442695040888963407
				row := int(s>>33)%(col.Rows()/writers)*writers + w
				buf = append(buf, asv.RowWrite{Row: row, Value: (s >> 3) % domain})
				if len(buf) == cap(buf) || i == perWriter-1 {
					if err := col.UpdateBatch(buf); err != nil {
						log.Fatal(err)
					}
					buf = buf[:0]
				}
			}
		}(w)
	}
	wg.Wait()
	rep, err := col.FlushUpdates()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d writers: %d updates, one flush -> +%d/-%d view pages\n",
		writers, rep.BatchSize, rep.PagesAdded, rep.PagesRemoved)
	if res, err = col.QueryOpt(hotLo, hotHi); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hot orders: %d (scanned %d pages via the view)\n", res.Count, res.PagesScanned)
	// Output:
	// hot view over [0, 300000]: 588 pages
	// batch 0: 20000 updates over 4059 pages -> +5/-3 view pages
	// batch 1: 20000 updates over 4074 pages -> +2/-4 view pages
	// batch 2: 20000 updates over 4068 pages -> +9/-6 view pages
	// batch 3: 20000 updates over 4072 pages -> +5/-4 view pages
	// batch 4: 20000 updates over 4066 pages -> +6/-3 view pages
	// aligned view: 595 pages, rebuilt from scratch: 595 pages
	// hot orders: 649 (scanned 595 pages via the view)
	// 4 writers: 40000 updates, one flush -> +10/-9 view pages
	// hot orders: 649 (scanned 596 pages via the view)
}

// ExampleWithAutopilot turns on the background maintenance subsystem.
// Writers fire lone, fire-and-forget Updates at a sensor column while
// readers keep querying it — no caller-side batching, no explicit
// flush: the autopilot coalesces the writes into group commits under a
// 5 ms latency bound, and Sync is the read-your-writes barrier. The
// same writes applied synchronously to a plain column, and realigned by
// one Sync there, converge to the same answers.
func ExampleWithAutopilot() {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	const (
		pages     = 2048
		domain    = 100_000_000
		writers   = 2
		readers   = 2
		perWriter = 2_500
	)
	auto, err := db.CreateColumn("readings-auto", pages, asv.WithAutopilot(asv.DefaultConfig(),
		asv.AutopilotConfig{MaxFlushLatency: 5 * time.Millisecond}))
	if err != nil {
		log.Fatal(err)
	}
	plain, err := db.CreateColumn("readings-plain", pages, asv.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	for _, col := range []*asv.Column{auto, plain} {
		if err := col.FillParallel(asv.Sine(7, 0, domain, 100)); err != nil {
			log.Fatal(err)
		}
		// A hot view an operator pre-warmed; queries grow more adaptively.
		if err := col.CreateViewOpt(0, domain/64); err != nil {
			log.Fatal(err)
		}
	}

	for _, col := range []*asv.Column{plain, auto} {
		var writes, reads sync.WaitGroup
		var done atomic.Bool
		for r := 0; r < readers; r++ {
			reads.Add(1)
			go func(r int) {
				defer reads.Done()
				// 1 %-wide ranges, a different walk over the domain per reader.
				for q := uint64(r); !done.Load(); q++ {
					lo := q * 7_919_993 % (domain - domain/100)
					if _, err := col.QueryOpt(lo, lo+domain/100); err != nil {
						log.Fatal(err)
					}
				}
			}(r)
		}
		for w := 0; w < writers; w++ {
			writes.Add(1)
			go func(w int) {
				defer writes.Done()
				// Writer w owns the rows ≡ w (mod writers), so the final
				// state does not depend on scheduling.
				s := uint64(w + 1)
				for i := 0; i < perWriter; i++ {
					s = s*6364136223846793005 + 1442695040888963407
					row := int(s>>33)%(col.Rows()/writers)*writers + w
					if err := col.Update(row, (s>>3)%domain); err != nil {
						log.Fatal(err)
					}
				}
			}(w)
		}
		writes.Wait()
		if err := col.Sync(); err != nil {
			log.Fatal(err)
		}
		done.Store(true)
		reads.Wait()
	}

	m, _ := auto.AutopilotMetrics()
	fmt.Printf("autopilot applied %d of %d lone writes\n", m.Applied, writers*perWriter)
	ra, err := auto.QueryOpt(0, domain/2)
	if err != nil {
		log.Fatal(err)
	}
	rp, err := plain.QueryOpt(0, domain/2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("equivalence: auto (%d, %d) vs plain (%d, %d) over half the domain\n",
		ra.Count, ra.Sum, rp.Count, rp.Sum)
	// Output:
	// autopilot applied 5000 of 5000 lone writes
	// equivalence: auto (509402, 9321094829653) vs plain (509402, 9321094829653) over half the domain
}

// ExampleColumn_concurrent is the multi-client face of the engine: one
// shared column serves four goroutines, each firing its own
// deterministic query stream, while a writer interleaves update bursts,
// each flushed. Queries pin an epoch and never take the engine lock, so
// they run beside the writer's alignments. The writer only moves values
// inside the lower half of the domain and the clients only ask about
// the upper half, so no answer depends on the interleaving: each one is
// re-checked against a full scan of the final column state.
func ExampleColumn_concurrent() {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	const (
		pages   = 2048
		domain  = 100_000_000
		clients = 4
		queries = 40 // per client
		width   = domain / 100
	)
	col, err := db.CreateColumn("shared", pages, asv.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := col.FillParallel(asv.Sine(42, 0, domain, 100)); err != nil {
		log.Fatal(err)
	}

	// The writer's rows: every 37th row whose value lies below the half.
	var targets []int
	for row := 0; len(targets) < 500; row += 37 {
		v, err := col.Value(row)
		if err != nil {
			log.Fatal(err)
		}
		if v < domain/2 {
			targets = append(targets, row)
		}
	}

	type answer struct {
		lo, hi uint64
		count  int
		sum    uint64
	}
	answers := make([][]answer, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := uint64(c + 1)
			for i := 0; i < queries; i++ {
				s = s*6364136223846793005 + 1442695040888963407
				lo := domain/2 + (s>>11)%(domain/2-width)
				res, err := col.QueryOpt(lo, lo+width)
				if err != nil {
					log.Fatal(err)
				}
				answers[c] = append(answers[c], answer{lo, lo + width, res.Count, res.Sum})
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for burst := 0; burst < 5; burst++ {
			for i, row := range targets[burst*100 : (burst+1)*100] {
				if err := col.Update(row, uint64(i)*1000); err != nil {
					log.Fatal(err)
				}
			}
			if _, err := col.FlushUpdates(); err != nil {
				log.Fatal(err)
			}
		}
	}()
	wg.Wait()

	final := make([]uint64, col.Rows())
	for row := range final {
		if final[row], err = col.Value(row); err != nil {
			log.Fatal(err)
		}
	}
	matched, total := 0, 0
	for _, as := range answers {
		for _, a := range as {
			n, sum := 0, uint64(0)
			for _, v := range final {
				if a.lo <= v && v <= a.hi {
					n++
					sum += v
				}
			}
			if n == a.count && sum == a.sum {
				matched++
			}
			total += a.count
		}
	}
	fmt.Printf("%d clients × %d queries beside 5 flushed bursts of 100 updates\n", clients, queries)
	fmt.Printf("full-scan re-check: %d of %d answers match, %d rows in total\n",
		matched, clients*queries, total)
	// Output:
	// 4 clients × 40 queries beside 5 flushed bursts of 100 updates
	// full-scan re-check: 160 of 160 answers match, 1605270 rows in total
}
