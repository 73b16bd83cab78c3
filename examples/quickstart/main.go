// Quickstart: open a DB, create and fill a column, run range queries, and
// watch partial views appear as a side product of query processing.
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
}
