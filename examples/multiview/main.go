// Multiview: fixed-selectivity analytics in multi-view mode (§2.1). A
// fleet-monitoring dashboard slices a metric into fixed-width windows at
// arbitrary positions; no single view covers every window, but once the
// adaptive layer has accumulated overlapping partial views, queries are
// answered by stitching several of them — the behaviour Figure 5 plots.
package main

import (
	"fmt"
	"log"

	asv "github.com/asv-db/asv"
)

func main() {
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
}
