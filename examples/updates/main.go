// Updates: batched view maintenance (§2.4/§2.5). An order table keeps hot
// views over "open" status codes while a write stream mutates rows; the
// views are realigned per batch — parse the (simulated) maps file once,
// then add/remove exactly the affected pages — and the example compares
// that against rebuilding the views from scratch. A final section drives
// the same volume through concurrent writers: the write path is sharded
// by physical page, so parallel Update/UpdateBatch callers only
// serialize per page group.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	asv "github.com/asv-db/asv"
)

func main() {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	const pages = 4096
	const domain = 1_000_000_000
	// Order keys 0..1B; the "hot" orders live in [0, 300_000] — a narrow
	// slice, so only a small fraction of pages carries one.
	const hotLo, hotHi = 0, 300_000
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

	// A write stream closes and opens orders. Values are chosen so some
	// rows enter the hot range and some leave it.
	rng := uint64(0xdeadbeef)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng % n
	}
	const batches, perBatch = 5, 20_000
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			row := int(next(uint64(col.Rows())))
			if err := col.Update(row, next(domain)); err != nil {
				log.Fatal(err)
			}
		}
		rep, err := col.FlushUpdates()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("batch %d: %5d updates -> %4d net pages touched | parse %7s + align %7s | +%d/-%d view pages\n",
			b, rep.BatchSize, rep.DirtyPages,
			rep.ParseDuration.Round(10*time.Microsecond),
			rep.AlignDuration.Round(10*time.Microsecond),
			rep.PagesAdded, rep.PagesRemoved)
	}

	// The alternative: rebuild the views from scratch (the "New" bar in
	// the paper's Figure 7).
	t0 := time.Now()
	if err := col.RebuildViews(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrebuilding all views from scratch instead: %s\n",
		time.Since(t0).Round(10*time.Microsecond))

	// Correctness spot check: the view layer answers like a fresh scan.
	res, err := col.QueryOpt(hotLo, hotHi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hot orders after all batches: %d (scanned %d pages via views)\n",
		res.Count, res.PagesScanned)

	// Concurrent write stream: four writers push deterministic update
	// streams (group commits of 64 rows) in parallel. Buffers are
	// sharded by physical page, so the writers only serialize where
	// their rows share a page group; one flush realigns everything.
	const writers, perWriter = 4, 10_000
	streams := asv.ConcurrentUpdateStreams(99, writers, perWriter, col.Rows(), 0, domain)
	t1 := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]asv.RowWrite, 0, 64)
			for _, u := range streams[w] {
				buf = append(buf, asv.RowWrite{Row: u.Row, Value: u.Value})
				if len(buf) == cap(buf) {
					if err := col.UpdateBatch(buf); err != nil {
						errs[w] = err
						return
					}
					buf = buf[:0]
				}
			}
			errs[w] = col.UpdateBatch(buf)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			log.Fatal(err)
		}
	}
	wrote := time.Since(t1)
	rep, err := col.FlushUpdates()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d concurrent writers: %d updates in %s (%.0f upd/s), one flush realigned +%d/-%d pages\n",
		writers, writers*perWriter, wrote.Round(10*time.Microsecond),
		float64(writers*perWriter)/wrote.Seconds(), rep.PagesAdded, rep.PagesRemoved)

	check, err := col.QueryOpt(hotLo, hotHi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hot orders after the concurrent storm: %d (scanned %d pages via views)\n",
		check.Count, check.PagesScanned)
}
