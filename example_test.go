package asv_test

import (
	"fmt"
	"log"

	asv "github.com/asv-db/asv"
)

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
