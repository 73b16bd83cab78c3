// Snapshot: pin an engine epoch and keep reading a stable, repeatable
// view of a column while writers update, flush, and realign the views
// underneath. Epoch-routed reads never enter the engine's room lock, so
// the pinned reader is immune to — and never stalls behind — alignment.
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
}
