// Autopilot: the background maintenance subsystem. A sensor column keeps
// serving concurrent readers while writers fire lone, fire-and-forget
// Updates at it — no caller-side batching, no explicit flushes. The
// autopilot coalesces the writes into group commits under a 5ms latency
// bound and runs a temperature-driven view lifecycle (cold views evicted,
// fragmented ones rebuilt, hot soft-TLBs pre-warmed). The example
// contrasts the same write volume pushed through a plain column with
// synchronous lone Updates.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	asv "github.com/asv-db/asv"
)

// The volume is deliberately small: the synchronous baseline waits out
// one flush — and hands the next query a one-update batch to flush and
// align — per lone write, which is exactly the degradation the autopilot
// exists to remove.
const (
	pages   = 2048
	domain  = 100_000_000
	writers = 2
	readers = 2
	perW    = 2_500
)

func main() {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// One column with an autopilot (5ms flush bound, defaults otherwise),
	// one plain column as the synchronous baseline.
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

	streams := asv.ConcurrentUpdateStreams(42, writers, perW, auto.Rows(), 0, domain)
	// Disjoint rows per writer (row ≡ writer mod writers): the final
	// column state is then independent of scheduling, so the two columns
	// must converge to identical answers.
	for w := range streams {
		for i := range streams[w] {
			r := streams[w][i].Row
			streams[w][i].Row = r - r%writers + w
		}
	}
	queries := asv.ConcurrentStreams(42, readers, 400, domain, 0.01)

	run := func(col *asv.Column, name string) {
		var (
			wg, rwg sync.WaitGroup
			done    atomic.Bool
			qCount  atomic.Int64
		)
		start := time.Now()
		for r := 0; r < readers; r++ {
			rwg.Add(1)
			go func(qs []asv.RangeQuery) {
				defer rwg.Done()
				for !done.Load() {
					for _, q := range qs {
						if _, err := col.QueryOpt(q.Lo, q.Hi); err != nil {
							log.Fatal(err)
						}
						qCount.Add(1)
						if done.Load() {
							return
						}
					}
				}
			}(queries[r])
		}
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(us []asv.PointUpdate) {
				defer wg.Done()
				for _, u := range us {
					// Lone updates on both paths: the difference is who
					// turns them into group commits.
					if err := col.Update(u.Row, u.Value); err != nil {
						log.Fatal(err)
					}
				}
			}(streams[w])
		}
		wg.Wait()
		if err := col.Sync(); err != nil { // read-your-writes barrier
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		done.Store(true)
		rwg.Wait()
		upds := float64(writers*perW) / elapsed.Seconds()
		qps := float64(qCount.Load()) / elapsed.Seconds()
		fmt.Printf("%-28s %10.0f upd/s  %8.0f reader qps\n", name, upds, qps)
	}

	fmt.Printf("lone fire-and-forget updates under %d readers (%d writers × %d updates):\n\n",
		readers, writers, perW)
	run(plain, "synchronous lone updates")
	run(auto, "autopilot-coalesced updates")

	m, _ := auto.AutopilotMetrics()
	lat := auto.Telemetry().Histograms["autopilot_flush_latency_ns"]
	fmt.Printf("\nautopilot telemetry:\n")
	fmt.Printf("  %d writes coalesced into %d group commits (avg %.0f writes/flush)\n",
		m.Applied, m.Flushes, m.AvgCoalesce())
	fmt.Printf("  flush triggers: %d count-threshold, %d deadline, %d backpressure, %d sync\n",
		m.CountFlushes, m.DeadlineFlushes, m.BackpressureFlushes, m.SyncFlushes)
	fmt.Printf("  flush latency: p50 %s, p99 %s (bound 5ms + alignment)\n",
		time.Duration(lat.Quantile(0.50)).Round(time.Microsecond),
		time.Duration(lat.Quantile(0.99)).Round(time.Microsecond))
	fmt.Printf("  lifecycle: %d maintenance ticks, %d cold views evicted, %d rebuilt, %d TLB pages warmed\n",
		m.MaintenanceTicks, m.ViewsEvicted, m.ViewsRebuilt, m.TLBPagesWarmed)

	// The two columns converged to the same data: same answers everywhere.
	ra, err := auto.QueryOpt(0, domain/2)
	if err != nil {
		log.Fatal(err)
	}
	rp, err := plain.QueryOpt(0, domain/2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nequivalence: auto (%d, %d) vs plain (%d, %d) over half the domain\n",
		ra.Count, ra.Sum, rp.Count, rp.Sum)
}
