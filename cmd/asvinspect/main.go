// Command asvinspect demonstrates the internals of the adaptive storage
// layer on a small column: it runs a query sequence, then dumps the view
// set, the VMA layout of the simulated address space, and the rendered
// /proc-style maps file — the structures the paper's mechanisms live in.
//
// Usage:
//
//	asvinspect [-pages 2048] [-queries 40] [-dist sine] [-mode single|multi]
//	asvinspect -autopilot            # fire-and-forget updates + lifecycle telemetry
//	asvinspect -snapshot             # pin an epoch, mutate the column, show repeatable reads
//	asvinspect -trace                # run one traced probe query and print its span tree
//	asvinspect -events               # enable the event journal and dump it at the end
//	asvinspect -metrics              # print the unified telemetry snapshot
//	asvinspect -metrics-out f.json   # write the telemetry snapshot as JSON (for CI artifacts)
//	asvinspect -serve                # in-process asvd: HTTP round-trip + telemetry + graceful drain
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/asv-db/asv/internal/autopilot"
	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/vmsim"
	"github.com/asv-db/asv/internal/workload"
	"github.com/asv-db/asv/internal/xrand"
)

func main() {
	var (
		pages    = flag.Int("pages", 2048, "column size in 4KiB pages")
		queries  = flag.Int("queries", 40, "number of adaptive queries to fire")
		distName = flag.String("dist", "sine", "distribution: "+strings.Join(dist.Names(), ", "))
		mode     = flag.String("mode", "single", "routing mode: single or multi")
		seed     = flag.Uint64("seed", 42, "workload seed")
		showMaps = flag.Bool("maps", true, "print the rendered maps file")
		autoPlt  = flag.Bool("autopilot", false, "enable the background maintenance subsystem: interleave fire-and-forget updates with the queries and dump coalescing/lifecycle telemetry")
		snapDemo = flag.Bool("snapshot", false, "after the query sequence, pin an epoch snapshot, overwrite rows and flush, and show the pinned reads staying repeatable while live reads move")
		tierDemo = flag.Bool("tiers", false, "attach a simulated capacity tier (hot budget = half the pages), demote the whole column after the queries, re-run a probe and dump per-tier occupancy")
		traceQ   = flag.Bool("trace", false, "after the query sequence, run one traced probe query and print its span tree")
		events   = flag.Bool("events", false, "enable the engine event journal (256 events) and dump it at the end")
		metrics  = flag.Bool("metrics", false, "print the unified telemetry snapshot (counters, gauges, histograms)")
		metOut   = flag.String("metrics-out", "", "write the telemetry snapshot as stable JSON to this file")
		srvDemo  = flag.Bool("serve", false, "run the network front end smoke demo: in-process asvd on a random port, fill + query + update round-trip over HTTP, telemetry, graceful shutdown")
	)
	flag.Parse()

	if *srvDemo {
		if err := serveDemo(*pages, *distName, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "asvinspect:", err)
			os.Exit(1)
		}
		return
	}

	o := obsFlags{trace: *traceQ, events: *events, metrics: *metrics, metricsOut: *metOut}
	if err := run(*pages, *queries, *distName, *mode, *seed, *showMaps, *autoPlt, *snapDemo, *tierDemo, o); err != nil {
		fmt.Fprintln(os.Stderr, "asvinspect:", err)
		os.Exit(1)
	}
}

// obsFlags bundles the observability switches so run's signature stays
// readable.
type obsFlags struct {
	trace      bool
	events     bool
	metrics    bool
	metricsOut string
}

func run(pages, queries int, distName, mode string, seed uint64, showMaps, autoPilot, snapDemo, tierDemo bool, o obsFlags) error {
	const domain = 100_000_000

	kern := vmsim.NewKernel(0)
	as := kern.NewAddressSpace()
	as.SetMaxMapCount(1<<32 - 1)
	col, err := storage.NewColumn(kern, as, "demo", pages)
	if err != nil {
		return err
	}
	g, err := dist.ByName(distName, seed, 0, domain, pages)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := col.FillParallel(g, 0); err != nil {
		return err
	}
	fillDur := time.Since(t0)

	cfg := core.DefaultConfig()
	if mode == "multi" {
		cfg.Mode = core.MultiView
	} else if mode != "single" {
		return fmt.Errorf("unknown mode %q", mode)
	}
	if autoPilot {
		cfg.Autopilot = &autopilot.Config{}
	}
	if tierDemo {
		cfg.Tiering = &vmsim.TierConfig{HotFrames: (pages + 1) / 2}
	}
	if o.events {
		cfg.JournalEvents = 256
	}
	eng, err := core.NewEngine(col, cfg)
	if err != nil {
		return err
	}
	defer eng.Close()

	fmt.Printf("column: %d pages (%d rows), %s distribution over [0, %d], fill in %s\n",
		col.NumPages(), col.Rows(), distName, domain, fillDur.Round(time.Microsecond))

	qs := workload.SelectivitySweep(seed, queries, domain, domain/2, domain/1000)
	rng := xrand.New(seed + 99)
	for i, q := range qs {
		if autoPilot {
			// Interleave fire-and-forget updates: the autopilot applies
			// and aligns them in the background while we keep querying.
			for u := 0; u < 16; u++ {
				if err := eng.Update(rng.Intn(col.Rows()), rng.Uint64n(domain)); err != nil {
					return err
				}
			}
		}
		res, err := eng.QueryOpt(q.Lo, q.Hi, core.QueryOptions{})
		if err != nil {
			return err
		}
		verdict := "full scan"
		if !res.UsedFullView {
			verdict = fmt.Sprintf("%d view(s)", res.ViewsUsed)
		}
		decision := ""
		if res.CandidateBuilt {
			decision = " | candidate " + res.Decision.String()
		}
		fmt.Printf("q%02d [%9d, %9d]  -> %6d rows, %5d pages scanned via %s%s\n",
			i, q.Lo, q.Hi, res.Count, res.PagesScanned, verdict, decision)
	}

	if autoPilot {
		if _, err := eng.Sync(); err != nil {
			return err
		}
	}

	if snapDemo {
		if err := snapshotDemo(eng, qs, rng, domain); err != nil {
			return err
		}
	}

	if tierDemo {
		if err := tiersDemo(eng, qs); err != nil {
			return err
		}
	}

	fmt.Printf("\n=== view set (%d partial views, frozen=%v) ===\n",
		eng.ViewSet().Len(), eng.ViewSet().Frozen())
	clock := eng.ViewSet().Clock()
	for i, v := range eng.Views() {
		fmt.Printf("  view %2d: [%12d, %12d]  %6d pages\n", i, v.Lo(), v.Hi(), v.NumPages())
	}
	if autoPilot {
		fmt.Printf("\n=== autopilot ===\n")
		p := eng.Autopilot()
		m := p.Metrics()
		fmt.Printf("  writes: %d enqueued, %d applied in %d coalesced flushes (avg %.1f/flush)\n",
			m.Enqueued, m.Applied, m.Flushes, m.AvgCoalesce())
		fmt.Printf("  flush triggers: %d count, %d bytes, %d deadline, %d backpressure, %d sync\n",
			m.CountFlushes, m.ByteFlushes, m.DeadlineFlushes, m.BackpressureFlushes, m.SyncFlushes)
		h := p.LatencyHistogram()
		fmt.Printf("  flush latency: p50 %s, p99 %s (%d samples)\n",
			time.Duration(h.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond), h.Count)
		fmt.Printf("  lifecycle: %d ticks, %d cold views evicted, %d rebuilt\n",
			m.MaintenanceTicks, m.ViewsEvicted, m.ViewsRebuilt)
		fmt.Printf("  cost model: %.0f ns/page scans, %.2fx slowdown\n",
			p.Model().ScanNsPerPage(), p.Model().ScanSlowdown())
		fmt.Printf("  view temperatures (LRU clock %d):\n", clock)
		for i, tp := range eng.ViewSet().Temperatures() {
			fmt.Printf("    view %2d: last used tick %d, %d hits\n", i, tp.LastUsed, tp.Uses)
		}
	}

	if o.trace {
		probe := qs[len(qs)/2]
		ans, err := eng.QueryOpt(probe.Lo, probe.Hi, core.QueryOptions{Trace: obs.NewTrace("query")})
		if err != nil {
			return err
		}
		fmt.Printf("\n=== trace: probe [%d, %d] -> %d rows ===\n", probe.Lo, probe.Hi, ans.Count)
		fmt.Print(ans.Trace)
	}

	if o.events {
		evs := eng.Journal().Events()
		fmt.Printf("\n=== event journal (%d events, cap %d) ===\n", len(evs), eng.Journal().Cap())
		for _, ev := range evs {
			fmt.Printf("  %s\n", ev)
		}
	}

	if o.metrics {
		fmt.Printf("\n=== telemetry ===\n")
		fmt.Print(eng.Telemetry().String())
	}

	if o.metricsOut != "" {
		data, err := eng.Telemetry().JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.metricsOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\ntelemetry snapshot written to %s\n", o.metricsOut)
	}

	st := as.Stats()
	fmt.Printf("\n=== address space ===\n")
	fmt.Printf("  VMAs: %d   mmap calls: %d   pages mapped: %d   splits: %d   merges: %d\n",
		st.VMACount, st.MmapCalls, st.PagesMapped, st.VMASplits, st.VMAMerges)
	fmt.Printf("  physical memory in use: %d MiB\n", kern.FramesInUse()*vmsim.PageSize/(1<<20))

	if showMaps {
		fmt.Printf("\n=== /proc/%d/maps (first 20 lines) ===\n", as.PID())
		maps := as.RenderMaps()
		printed, line := 0, 0
		for _, b := range maps {
			if printed >= 20 {
				fmt.Printf("  ... (%d more lines)\n", countLines(maps)-printed)
				break
			}
			fmt.Printf("%c", b)
			line++
			if b == '\n' {
				printed++
			}
		}
	}
	return nil
}

// snapshotDemo pins the current epoch, mutates the column through the
// write path (overwrites + flush, which realigns views and publishes new
// states), and shows the pinned handle answering byte-identically while
// live queries observe the new values — the epoch-routing mechanism made
// visible.
func snapshotDemo(eng *core.Engine, qs []workload.Query, rng *xrand.Rand, domain uint64) error {
	fmt.Printf("\n=== snapshot (pinned epoch) ===\n")
	snap, err := eng.Snapshot()
	if err != nil {
		return err
	}
	defer snap.Close()
	probe := qs[len(qs)/2]
	before, err := snap.QueryOpt(probe.Lo, probe.Hi, core.QueryOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("  pinned gen %d with %d partial view(s); probe [%d, %d] -> %d rows (sum %d)\n",
		snap.Gen(), snap.Views(), probe.Lo, probe.Hi, before.Count, before.Sum)

	rows := eng.Column().Rows()
	const overwrites = 4096
	for i := 0; i < overwrites; i++ {
		if err := eng.Update(rng.Intn(rows), rng.Uint64n(domain)); err != nil {
			return err
		}
	}
	rep, err := eng.Sync()
	if err != nil {
		return err
	}
	fmt.Printf("  mutated: %d overwrites flushed (%d dirty pages, +%d/-%d view pages realigned)\n",
		overwrites, rep.DirtyPages, rep.PagesAdded, rep.PagesRemoved)

	after, err := snap.QueryOpt(probe.Lo, probe.Hi, core.QueryOptions{})
	if err != nil {
		return err
	}
	live, err := eng.QueryOpt(probe.Lo, probe.Hi, core.QueryOptions{})
	if err != nil {
		return err
	}
	repeat := "repeatable"
	if after.Count != before.Count || after.Sum != before.Sum {
		repeat = "NOT REPEATABLE (bug!)"
	}
	fmt.Printf("  pinned re-read  -> %d rows (sum %d): %s\n", after.Count, after.Sum, repeat)
	fmt.Printf("  live read       -> %d rows (sum %d) over the realigned views\n", live.Count, live.Sum)
	return nil
}

// tiersDemo makes the frame tiers visible: per-tier occupancy after the
// adaptive workload, then after demoting the entire column to the
// simulated capacity tier, then after one probe query whose touches
// promote what it scanned back up to the hot budget — charging the
// configured latency multiplier for every cold frame on the way.
func tiersDemo(eng *core.Engine, qs []workload.Query) error {
	fmt.Printf("\n=== frame tiers ===\n")
	dump := func(stage string) (vmsim.TierStats, error) {
		s, ok := eng.TierStats()
		if !ok {
			return s, fmt.Errorf("tier demo engine reports no tier stats")
		}
		fmt.Printf("  %-28s hot %6d / budget %d, cold %6d (hot fraction %.2f)\n",
			stage+":", s.HotFrames, s.HotBudget, s.ColdFrames, s.HotFraction())
		return s, nil
	}
	if _, err := dump("after workload"); err != nil {
		return err
	}

	tier := eng.Tier()
	for p := 0; p < eng.Column().NumPages(); p++ {
		tier.Demote(p)
	}
	if _, err := dump("after demoting every page"); err != nil {
		return err
	}

	probe := qs[len(qs)/2]
	res, err := eng.QueryOpt(probe.Lo, probe.Hi, core.QueryOptions{})
	if err != nil {
		return err
	}
	s, err := dump("after one probe query")
	if err != nil {
		return err
	}
	fmt.Printf("  probe [%d, %d] -> %d rows over %d pages\n",
		probe.Lo, probe.Hi, res.Count, res.PagesScanned)
	fmt.Printf("  lifetime: %d demotions, %d promotions, %d cold touches, %s simulated stall\n",
		s.Demotions, s.Promotions, s.ColdTouches, time.Duration(s.StallNanos))
	return nil
}

func countLines(b []byte) int {
	n := 0
	for _, c := range b {
		if c == '\n' {
			n++
		}
	}
	return n
}
