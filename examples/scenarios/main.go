// Scenarios: the generator family beyond the paper's four distributions.
// Builds one column per registered distribution with the parallel fill
// path, fires the same query at each, and shows how the adaptive layer
// reacts to value skew (zipf), a hot region (hotspot), per-page locality
// (clustered) and a sliding window (shifted).
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

	const (
		pages  = 4096
		domain = 100_000_000
	)

	fmt.Printf("%-10s %10s %8s %14s %12s\n", "dist", "fill", "rows", "pages scanned", "views after")
	for _, name := range asv.GeneratorNames() {
		g, err := asv.GeneratorByName(name, 42, 0, domain, pages)
		if err != nil {
			log.Fatal(err)
		}
		col, err := db.CreateColumn(name, pages, asv.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		if err := col.FillParallel(g); err != nil {
			log.Fatal(err)
		}
		fill := time.Since(t0)

		// The same mid-domain range twice: the first query adapts, the
		// second harvests the view.
		if _, err := col.QueryOpt(40_000_000, 42_000_000); err != nil {
			log.Fatal(err)
		}
		res, err := col.QueryOpt(40_000_000, 42_000_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %10s %8d %14d %12d\n",
			name, fill.Round(time.Microsecond), res.Count, res.PagesScanned, len(col.Views()))
	}
}
