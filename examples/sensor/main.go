// Sensor: the paper's motivating scenario — clustered time-series data
// (daily temperature cycles) queried repeatedly over operational value
// ranges. The adaptive layer turns the recurring ranges into partial
// views; this example shows the per-query cost collapsing over the
// sequence, the effect Figure 4 plots.
package main

import (
	"fmt"
	"log"
	"time"

	asv "github.com/asv-db/asv"
)

func main() {
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

	fmt.Println("\nround  band                     rows      pages   time")
	var firstRound, lastRound time.Duration
	const rounds = 8
	for round := 0; round < rounds; round++ {
		var roundTime time.Duration
		for _, b := range bands {
			t0 := time.Now()
			res, err := col.QueryOpt(b.lo, b.hi)
			if err != nil {
				log.Fatal(err)
			}
			d := time.Since(t0)
			roundTime += d
			if round == 0 || round == rounds-1 {
				fmt.Printf("%5d  %-22s %8d   %6d   %8s\n",
					round, b.name, res.Count, res.PagesScanned, d.Round(10*time.Microsecond))
			}
		}
		if round == 0 {
			firstRound = roundTime
		}
		lastRound = roundTime
	}

	fmt.Printf("\nfirst dashboard refresh: %s\n", firstRound.Round(10*time.Microsecond))
	fmt.Printf("last dashboard refresh:  %s (%.1fx faster)\n",
		lastRound.Round(10*time.Microsecond), float64(firstRound)/float64(lastRound))

	stats := col.Stats()
	fmt.Printf("\nviews created: %d, queries: %d, pages scanned in total: %d\n",
		stats.ViewsCreated, stats.Queries, stats.PagesScanned)
	for i, v := range col.Views() {
		fmt.Printf("  view %d: values [%d, %d] -> %d pages\n", i, v.Lo, v.Hi, v.Pages)
	}
}
