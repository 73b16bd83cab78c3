package asv_test

import (
	"fmt"
	"log"

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
