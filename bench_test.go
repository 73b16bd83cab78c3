// Benchmarks regenerating the cost core of every table and figure in the
// paper's evaluation (§3). Each benchmark measures the operation the
// corresponding plot reports — per-query latency (Fig. 3/4/5), view
// creation time (Fig. 6), batch alignment time (Fig. 7), accumulated
// sequence time (Table 1) — at a bench-friendly scale. The full-scale
// series with the paper's exact workloads come from cmd/asvbench. There is
// no paper-vs-measured table yet; README.md, "Departures from the paper",
// says why.
//
// Ablation benchmarks at the bottom quantify the design decisions listed
// in the same README section.
package asv_test

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	asv "github.com/asv-db/asv"
	"github.com/asv-db/asv/internal/autopilot"
	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/explicit"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/vmsim"
	"github.com/asv-db/asv/internal/workload"
)

const (
	benchPages  = 4096 // 16 MiB columns keep -bench minutes, not hours
	benchDomain = 100_000_000
)

// benchColumn builds a filled column, outside the timer.
func benchColumn(b *testing.B, pages int, g dist.Generator) *storage.Column {
	b.Helper()
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1<<32 - 1)
	c, err := storage.NewColumn(k, as, "bench", pages)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Fill(g); err != nil {
		b.Fatal(err)
	}
	return c
}

// ---------------------------------------------------------------------------
// Figure 2: distribution generators.

func BenchmarkFig2_Generators(b *testing.B) {
	for _, name := range []string{"uniform", "linear", "sine", "sparse"} {
		b.Run(name, func(b *testing.B) {
			g, err := dist.ByName(name, 1, 0, benchDomain, benchPages)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]uint64, storage.ValuesPerPage)
			b.SetBytes(int64(len(out) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.FillPage(i%benchPages, out)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 3: explicit vs virtual partial views. One sub-benchmark per
// variant, measuring the query [0, k/2] against an index over [0, k] after
// the update stream — the exact quantity on the Figure 3 y-axis.

func fig3Index(b *testing.B, col *storage.Column, variant string, k uint64) explicit.Index {
	b.Helper()
	var (
		idx explicit.Index
		err error
	)
	switch variant {
	case "zonemap":
		idx = explicit.NewZoneMap(col, 0, k)
	case "bitmap":
		idx, err = explicit.NewBitmap(col, 0, k)
	case "pagevector":
		idx, err = explicit.NewPageVector(col, 0, k)
	case "physical":
		idx, err = explicit.NewPhysicalScan(col, 0, k)
	case "virtual":
		idx, err = explicit.NewVirtualView(col, 0, k, view.CreateOptions{Consecutive: true}, nil)
	}
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

func BenchmarkFig3_ExplicitVsVirtual(b *testing.B) {
	// k=20000 is the paper's mid selectivity (~9.7% of pages indexed).
	const k = 20000
	for _, variant := range []string{"zonemap", "bitmap", "pagevector", "physical", "virtual"} {
		b.Run(variant, func(b *testing.B) {
			col := benchColumn(b, benchPages, dist.NewUniform(1, 0, benchDomain))
			idx := fig3Index(b, col, variant, k)
			// The Figure 3 update stream, scaled with the column.
			ups := workload.UniformUpdates(2, 1000, col.Rows(), 0, benchDomain)
			for _, u := range ups {
				old, err := col.SetValue(u.Row, u.Value)
				if err != nil {
					b.Fatal(err)
				}
				if err := idx.ApplyUpdate(u.Row, old, u.Value); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := idx.Lookup(0, k/2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 4: adaptive query processing, single-view mode. One iteration =
// the full shuffled selectivity sweep; the custom metrics report the
// accumulated adaptive time against the full-scan baseline.

func benchFig4(b *testing.B, distName string) {
	g, err := dist.ByName(distName, 42, 0, benchDomain, benchPages)
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.SelectivitySweep(42, 100, benchDomain, benchDomain/2, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		col := benchColumn(b, benchPages, g)
		cfg := core.DefaultConfig()
		cfg.MaxViews = 100
		eng, err := core.NewEngine(col, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		pages := 0
		for _, q := range queries {
			res, err := eng.QueryOpt(q.Lo, q.Hi, core.QueryOptions{})
			if err != nil {
				b.Fatal(err)
			}
			pages += res.PagesScanned
		}
		b.StopTimer()
		b.ReportMetric(float64(pages)/float64(len(queries)), "pages/query")
		_ = eng.Close()
		_ = col.Close()
		b.StartTimer()
	}
}

func BenchmarkFig4a_AdaptiveSine(b *testing.B)   { benchFig4(b, "sine") }
func BenchmarkFig4b_AdaptiveLinear(b *testing.B) { benchFig4(b, "linear") }
func BenchmarkFig4c_AdaptiveSparse(b *testing.B) { benchFig4(b, "sparse") }

// BenchmarkFig4_FullscanBaseline is the flat baseline line of Figure 4.
func BenchmarkFig4_FullscanBaseline(b *testing.B) {
	col := benchColumn(b, benchPages, dist.NewSine(42, 0, benchDomain, 100))
	eng, err := core.NewEngine(col, core.BaselineConfig())
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.SelectivitySweep(42, 100, benchDomain, benchDomain/2, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := eng.QueryOpt(q.Lo, q.Hi, core.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 5: adaptive query processing, multi-view mode, fixed selectivity.

func benchFig5(b *testing.B, sel float64, maxViews int) {
	queries := workload.FixedSelectivity(42, 150, benchDomain, sel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		col := benchColumn(b, benchPages, dist.NewSine(42, 0, benchDomain, 100))
		cfg := core.DefaultConfig()
		cfg.Mode = core.MultiView
		cfg.MaxViews = maxViews
		eng, err := core.NewEngine(col, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		views := 0
		for _, q := range queries {
			res, err := eng.QueryOpt(q.Lo, q.Hi, core.QueryOptions{})
			if err != nil {
				b.Fatal(err)
			}
			views += res.ViewsUsed
		}
		b.StopTimer()
		b.ReportMetric(float64(views)/float64(len(queries)), "views/query")
		_ = eng.Close()
		_ = col.Close()
		b.StartTimer()
	}
}

func BenchmarkFig5a_MultiViewSel1(b *testing.B)  { benchFig5(b, 0.01, 200) }
func BenchmarkFig5b_MultiViewSel10(b *testing.B) { benchFig5(b, 0.10, 20) }

// ---------------------------------------------------------------------------
// Table 1: accumulated response time, adaptive vs full scans. The custom
// metric is the speedup factor (paper: up to 1.88x).

func BenchmarkTable1_AccumulatedSpeedup(b *testing.B) {
	queries := workload.SelectivitySweep(42, 100, benchDomain, benchDomain/2, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		col := benchColumn(b, benchPages, dist.NewSine(42, 0, benchDomain, 100))
		adaptive, err := core.NewEngine(col, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		baseline, err := core.NewEngine(col, core.BaselineConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		var aTot, bTot time.Duration
		for _, q := range queries {
			t0 := time.Now()
			if _, err := adaptive.QueryOpt(q.Lo, q.Hi, core.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
			aTot += time.Since(t0)
			t1 := time.Now()
			if _, err := baseline.QueryOpt(q.Lo, q.Hi, core.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
			bTot += time.Since(t1)
		}
		b.StopTimer()
		b.ReportMetric(bTot.Seconds()/aTot.Seconds(), "speedup")
		_ = adaptive.Close()
		_ = baseline.Close()
		_ = col.Close()
		b.StartTimer()
	}
}

// ---------------------------------------------------------------------------
// Figure 6: view-creation optimizations. One iteration = creating (and
// releasing, untimed) one partial view.

func benchFig6(b *testing.B, distName string, opts view.CreateOptions) {
	var g dist.Generator
	var lo, hi uint64
	switch distName {
	case "uniform":
		g = dist.NewUniform(1, 0, benchDomain)
		lo, hi = 0, 100_000 // ~40% of pages, short runs
	case "sine":
		g = dist.NewSine(1, 0, math.MaxUint64, 100)
		lo, hi = 0, 1<<63 // ~52% of pages, long runs
	}
	col := benchColumn(b, benchPages, g)
	var mapper *view.Mapper
	if opts.Concurrent {
		mapper = view.NewMapper()
		defer mapper.Stop()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs, err := view.Build(col, []view.Spec{{Lo: lo, Hi: hi, Opts: opts}}, mapper)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		vs[0].Release()
		b.StartTimer()
	}
}

func BenchmarkFig6a_CreateUniform(b *testing.B) {
	for _, v := range []struct {
		name string
		opts view.CreateOptions
	}{
		{"no_optimizations", view.CreateOptions{}},
		{"consecutive", view.CreateOptions{Consecutive: true}},
		{"concurrent", view.CreateOptions{Concurrent: true}},
		{"both", view.AllOptimizations},
	} {
		b.Run(v.name, func(b *testing.B) { benchFig6(b, "uniform", v.opts) })
	}
}

func BenchmarkFig6b_CreateSine(b *testing.B) {
	for _, v := range []struct {
		name string
		opts view.CreateOptions
	}{
		{"no_optimizations", view.CreateOptions{}},
		{"consecutive", view.CreateOptions{Consecutive: true}},
		{"concurrent", view.CreateOptions{Concurrent: true}},
		{"both", view.AllOptimizations},
	} {
		b.Run(v.name, func(b *testing.B) { benchFig6(b, "sine", v.opts) })
	}
}

// ---------------------------------------------------------------------------
// Figure 7: update performance vs batch size. One iteration = flushing a
// buffered batch into five 1/1024-wide views (setup and the writes
// untimed), plus a sub-bench for the rebuild alternative.

func benchFig7(b *testing.B, distName string, batch int, rebuild bool) {
	var mkGen func() dist.Generator
	switch distName {
	case "uniform":
		mkGen = func() dist.Generator { return dist.NewUniform(1, 0, math.MaxUint64) }
	case "sine":
		mkGen = func() dist.Generator { return dist.NewSine(1, 0, math.MaxUint64, 100) }
	}
	ranges := workload.RandomSubranges(7, 5, math.MaxUint64, 1.0/1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		col := benchColumn(b, benchPages, mkGen())
		cfg := core.DefaultConfig()
		cfg.MaxViews = 5
		eng, err := core.NewEngine(col, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range ranges {
			if _, err := eng.CreateViewsOpt([]core.ViewSpec{{Lo: r.Lo, Hi: r.Hi, Pinned: true}}); err != nil {
				b.Fatal(err)
			}
		}
		ups := workload.UniformUpdates(uint64(batch), batch, col.Rows(), 0, math.MaxUint64)
		writes := make([]core.RowWrite, len(ups))
		for j, u := range ups {
			writes[j] = core.RowWrite{Row: u.Row, Value: u.Value}
		}
		if err := eng.UpdateBatch(writes); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		if rebuild {
			if err := eng.RebuildViews(); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := eng.FlushUpdates(); err != nil {
				b.Fatal(err)
			}
		}

		b.StopTimer()
		_ = eng.Close()
		_ = col.Close()
		b.StartTimer()
	}
}

func BenchmarkFig7a_UpdateUniform(b *testing.B) {
	for _, batch := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) { benchFig7(b, "uniform", batch, false) })
	}
	b.Run("rebuild", func(b *testing.B) { benchFig7(b, "uniform", 1000, true) })
}

func BenchmarkFig7b_UpdateSine(b *testing.B) {
	for _, batch := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) { benchFig7(b, "sine", batch, false) })
	}
	b.Run("rebuild", func(b *testing.B) { benchFig7(b, "sine", 1000, true) })
}

// ---------------------------------------------------------------------------
// Concurrency (beyond the paper): concurrent clients, writers and the
// autopilot's intake on one shared engine.

// BenchmarkConcurrentClients measures read throughput of one shared
// default engine under 1, 2, 4 and 8 concurrent clients, each firing its
// own deterministic 1%-selectivity stream. One iteration = every client
// completes one query, so ns/op over queries/op is the cost of a query;
// it stays flat as clients grow while reads do not contend.
func BenchmarkConcurrentClients(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients%d", clients), func(b *testing.B) {
			col := benchColumn(b, benchPages, dist.NewSine(42, 0, benchDomain, 100))
			eng, err := core.NewEngine(col, core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			streams := workload.ConcurrentClients(42, clients, 64, benchDomain, 0.01)
			var wg sync.WaitGroup
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(stream []workload.Query, i int) {
						defer wg.Done()
						q := stream[i%len(stream)]
						if _, err := eng.QueryOpt(q.Lo, q.Hi, core.QueryOptions{}); err != nil {
							b.Error(err)
						}
					}(streams[c], i)
				}
				wg.Wait()
			}
			b.ReportMetric(float64(clients), "queries/op")
		})
	}
}

// BenchmarkConcurrentUpdaters measures how fast 1, 2 and 4 concurrent
// writers append group commits to the GOMAXPROCS page-hashed pending
// shards. Nothing is flushed inside the clock, so the rows differ only in
// buffer contention. One iteration = every writer lands one group commit
// of 64 rows.
func BenchmarkConcurrentUpdaters(b *testing.B) {
	const group = 64
	for _, writers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("sharded/writers%d", writers), func(b *testing.B) {
			col := benchColumn(b, benchPages, dist.NewSine(42, 0, benchDomain, 100))
			eng, err := core.NewEngine(col, core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			streams := workload.ConcurrentUpdaters(42, writers, 4096, col.Rows(), 0, benchDomain)
			var wg sync.WaitGroup
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(stream []workload.PointUpdate, i int) {
						defer wg.Done()
						ws := make([]core.RowWrite, group)
						for j := 0; j < group; j++ {
							u := stream[(i*group+j)%len(stream)]
							ws[j] = core.RowWrite{Row: u.Row, Value: u.Value}
						}
						if err := eng.UpdateBatch(ws); err != nil {
							b.Error(err)
						}
					}(streams[w], i)
				}
				wg.Wait()
			}
			b.StopTimer()
			if _, err := eng.FlushUpdates(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(writers*group), "updates/op")
		})
	}
}

// BenchmarkAutopilotEnqueue: the fire-and-forget write path — validate,
// hash to an intake shard, append — which is everything a caller pays
// with an autopilot; apply + alignment happen on the pilot. The final
// Sync keeps the work honest (all writes applied and aligned before the
// benchmark reports).
func BenchmarkAutopilotEnqueue(b *testing.B) {
	for _, writers := range []int{1, 4} {
		b.Run(fmt.Sprintf("writers%d", writers), func(b *testing.B) {
			col := benchColumn(b, benchPages, dist.NewSine(42, 0, benchDomain, 100))
			cfg := core.DefaultConfig()
			cfg.Autopilot = &autopilot.Config{}
			eng, err := core.NewEngine(col, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			streams := workload.ConcurrentUpdaters(42, writers, 4096, col.Rows(), 0, benchDomain)
			var wg sync.WaitGroup
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(stream []workload.PointUpdate, i int) {
						defer wg.Done()
						u := stream[i%len(stream)]
						if err := eng.Update(u.Row, u.Value); err != nil {
							b.Error(err)
						}
					}(streams[w], i)
				}
				wg.Wait()
			}
			b.StopTimer()
			if _, err := eng.Sync(); err != nil {
				b.Fatal(err)
			}
			p := eng.Autopilot()
			h := p.LatencyHistogram()
			b.ReportMetric(float64(writers), "updates/op")
			b.ReportMetric(p.Metrics().AvgCoalesce(), "rows/flush")
			b.ReportMetric(float64(h.Quantile(0.5))/1e6, "flush_p50_ms")
			b.ReportMetric(float64(h.Quantile(0.99))/1e6, "flush_p99_ms")
		})
	}
}

// BenchmarkReadersUnderAlignment measures read throughput while one
// writer keeps the engine realigning: it loops 64-row UpdateBatch +
// FlushUpdates over a sine column with four pinned narrow views until
// the readers finish. An epoch reader calls QueryOpt, which pins the
// current state per query; a pinned reader re-pins a Snapshot every 16
// queries. One iteration = every reader completes one query. flushes/op
// is the writer's progress over the same window, so a reader gain bought
// by starving the writer shows. views is the view count at the end (epoch
// readers adapt, pinned ones do not), flush_ms the mean wall time of one
// FlushUpdates and parse_ms the mean of its ParseDuration: each view
// makes every flush dearer.
func BenchmarkReadersUnderAlignment(b *testing.B) {
	const (
		group    = 64
		pinBatch = 16
	)
	for _, mode := range []string{"epoch", "pinned"} {
		for _, readers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/readers%d", mode, readers), func(b *testing.B) {
				col := benchColumn(b, benchPages, dist.NewSine(42, 0, benchDomain, 100))
				eng, err := core.NewEngine(col, core.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				defer eng.Close()
				for _, r := range workload.RandomSubranges(47, 4, benchDomain, 1.0/64) {
					if _, err := eng.CreateViewsOpt([]core.ViewSpec{{Lo: r.Lo, Hi: r.Hi, Pinned: true}}); err != nil {
						b.Fatal(err)
					}
				}
				writes := workload.ConcurrentUpdaters(63, 1, 4096, col.Rows(), 0, benchDomain)[0]
				streams := workload.ConcurrentClients(65, readers, 64, benchDomain, 0.01)

				stop := make(chan struct{})
				writerDone := make(chan struct{})
				flushes := 0
				var flushWall, parse time.Duration
				b.ResetTimer()
				go func() {
					defer close(writerDone)
					ws := make([]core.RowWrite, group)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						for j := range ws {
							u := writes[(i*group+j)%len(writes)]
							ws[j] = core.RowWrite{Row: u.Row, Value: u.Value}
						}
						if err := eng.UpdateBatch(ws); err != nil {
							b.Error(err)
							return
						}
						start := time.Now()
						st, err := eng.FlushUpdates()
						if err != nil {
							b.Error(err)
							return
						}
						flushWall += time.Since(start)
						parse += st.ParseDuration
						flushes++
					}
				}()
				var wg sync.WaitGroup
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(stream []workload.Query) {
						defer wg.Done()
						if mode == "epoch" {
							for i := 0; i < b.N; i++ {
								q := stream[i%len(stream)]
								if _, err := eng.QueryOpt(q.Lo, q.Hi, core.QueryOptions{}); err != nil {
									b.Error(err)
									return
								}
							}
							return
						}
						for i := 0; i < b.N; i += pinBatch {
							snap, err := eng.Snapshot()
							if err != nil {
								b.Error(err)
								return
							}
							for j := i; j < i+pinBatch && j < b.N && err == nil; j++ {
								q := stream[j%len(stream)]
								_, err = snap.QueryOpt(q.Lo, q.Hi, core.QueryOptions{})
							}
							snap.Close()
							if err != nil {
								b.Error(err)
								return
							}
						}
					}(streams[r])
				}
				wg.Wait()
				b.StopTimer()
				close(stop)
				<-writerDone
				b.ReportMetric(float64(readers), "queries/op")
				b.ReportMetric(float64(flushes)/float64(b.N), "flushes/op")
				b.ReportMetric(float64(len(eng.Views())), "views")
				if flushes > 0 {
					b.ReportMetric(flushWall.Seconds()*1e3/float64(flushes), "flush_ms")
					b.ReportMetric(parse.Seconds()*1e3/float64(flushes), "parse_ms")
				}
			})
		}
	}
}

// BenchmarkFlushByViews prices a view on the write path: one op is one
// 64-row UpdateBatch plus one FlushUpdates on a 16 384-page sine column
// holding 0, 4, 25 or 100 pinned 1 % views made by CreateViewsOpt, eager
// or lazy. It reports per flush the maps parse, the per-view alignment,
// the state publication (the Stats().PublishNanos delta) and the size of
// the parsed maps file, so the slope over the view count is each view's
// price. Lazy views are materialized by the first flush that aligns them.
func BenchmarkFlushByViews(b *testing.B) {
	const (
		pages = 16384
		group = 64
	)
	for _, lazy := range []bool{false, true} {
		for _, n := range []int{0, 4, 25, 100} {
			name := fmt.Sprintf("eager/views%d", n)
			if lazy {
				name = fmt.Sprintf("lazy/views%d", n)
			}
			b.Run(name, func(b *testing.B) {
				col := benchColumn(b, pages, dist.NewSine(42, 0, benchDomain, 100))
				eng, err := core.NewEngine(col, core.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				defer eng.Close()
				if n > 0 {
					specs := make([]core.ViewSpec, n)
					for i, r := range workload.RandomSubranges(47, n, benchDomain, 0.01) {
						specs[i] = core.ViewSpec{Lo: r.Lo, Hi: r.Hi, Pinned: true, Lazy: lazy, HasLazy: true}
					}
					if _, err := eng.CreateViewsOpt(specs); err != nil {
						b.Fatal(err)
					}
				}
				writes := workload.UniformUpdates(63, 4096, col.Rows(), 0, benchDomain)
				ws := make([]core.RowWrite, group)
				var parse, align time.Duration
				var mapsBytes int
				publish0 := eng.Stats().PublishNanos
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range ws {
						u := writes[(i*group+j)%len(writes)]
						ws[j] = core.RowWrite{Row: u.Row, Value: u.Value}
					}
					if err := eng.UpdateBatch(ws); err != nil {
						b.Fatal(err)
					}
					st, err := eng.FlushUpdates()
					if err != nil {
						b.Fatal(err)
					}
					parse += st.ParseDuration
					align += st.AlignDuration
					mapsBytes += st.MapsBytes
				}
				b.StopTimer()
				publish := time.Duration(eng.Stats().PublishNanos - publish0)
				b.ReportMetric(parse.Seconds()*1e3/float64(b.N), "parse_ms")
				b.ReportMetric(align.Seconds()*1e3/float64(b.N), "align_ms")
				b.ReportMetric(publish.Seconds()*1e3/float64(b.N), "publish_ms")
				b.ReportMetric(float64(mapsBytes)/float64(b.N), "maps_bytes")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Tiering (beyond the paper): scans over the simulated capacity tier.

// BenchmarkTieredScan runs the selectivity sweep on an adaptive sine
// column whose hot tier holds 1/8, 1/2 or all of its pages. Every page
// is demoted before the clock starts; scans pay the cold-tier stall for
// each cold page they touch and promote it within the hot budget, so a
// long run shows the steady state that promote-on-access reaches under
// each budget. One iteration = one query; stall_ns/op is the simulated
// cold-access latency it was charged.
func BenchmarkTieredScan(b *testing.B) {
	queries := workload.SelectivitySweep(42, 250, benchDomain, benchDomain/2, 5000)
	for _, frac := range []float64{0.125, 0.5, 1} {
		b.Run(fmt.Sprintf("hot=%g", frac), func(b *testing.B) {
			col := benchColumn(b, benchPages, dist.NewSine(42, 0, benchDomain, 100))
			cfg := core.DefaultConfig()
			cfg.MaxViews = 100
			cfg.Tiering = &vmsim.TierConfig{HotFrames: int(benchPages * frac)}
			eng, err := core.NewEngine(col, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			for p := 0; p < benchPages; p++ {
				eng.Tier().Demote(p)
			}
			before, _ := eng.TierStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if _, err := eng.QueryOpt(q.Lo, q.Hi, core.QueryOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after, _ := eng.TierStats()
			b.ReportMetric(float64(after.StallNanos-before.StallNanos)/float64(b.N), "stall_ns/op")
		})
	}
}

// ---------------------------------------------------------------------------
// Telemetry: the zero-cost-when-off contract of the obs layer.

// benchQueryOptEngine builds the fixed-work query engine the tracing
// benchmarks share: a baseline (non-adaptive) engine, so every iteration
// scans the same full capture and the only variable is the telemetry
// option under test.
func benchQueryOptEngine(b *testing.B) *core.Engine {
	col := benchColumn(b, benchPages/4, dist.NewSine(42, 0, benchDomain, 100))
	eng, err := core.NewEngine(col, core.BaselineConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = eng.Close() })
	return eng
}

// BenchmarkQueryOptTracingOff measures the untraced query path with
// telemetry compiled in — the acceptance bar: allocations and throughput
// identical to the pre-telemetry engine (every obs site on this path is
// a nil test or an always-on atomic add).
func BenchmarkQueryOptTracingOff(b *testing.B) {
	eng := benchQueryOptEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.QueryOpt(0, benchDomain/2, core.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryOptTracingOn is the same query with a span tree
// recorded: the per-query tracing overhead (a handful of small
// allocations for the spans) paid only by callers who asked for it.
func BenchmarkQueryOptTracingOn(b *testing.B) {
	eng := benchQueryOptEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTrace("query")
		if _, err := eng.QueryOpt(0, benchDomain/2, core.QueryOptions{Trace: tr}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// The hot query: one narrow Aggregate (0.1 % of the domain on a 16 384-page
// linear column) whose view is already in place — the floor of the serve
// path. A live read still builds a candidate and discards it, so the gap
// between the two benchmarks is what adaptation costs a query that gains
// nothing from it; a snapshot read builds nothing.

// hotQueryColumn builds the column, asks the query twice (the first call
// builds its view, the second finds it) and returns the column and the
// query's bounds.
func hotQueryColumn(b *testing.B) (*asv.Column, uint64, uint64) {
	b.Helper()
	const pages = 16384
	db, err := asv.Open(asv.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = db.Close() }) //asv:ignore-err benchmark teardown
	col, err := db.CreateColumn("hot", pages, asv.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := col.FillParallel(asv.Linear(7, 0, benchDomain, pages)); err != nil {
		b.Fatal(err)
	}
	lo := uint64(benchDomain) / 3
	hi := lo + benchDomain/1000
	for i := 0; i < 2; i++ {
		if _, err := col.QueryOpt(lo, hi, asv.Aggregate()); err != nil {
			b.Fatal(err)
		}
	}
	return col, lo, hi
}

func BenchmarkHotQueryLive(b *testing.B) {
	col, lo, hi := hotQueryColumn(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := col.QueryOpt(lo, hi, asv.Aggregate()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotQuerySnapshot(b *testing.B) {
	col, lo, hi := hotQueryColumn(b)
	snap, err := col.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = snap.Close() }() //asv:ignore-err benchmark teardown
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.QueryOpt(lo, hi, asv.Aggregate()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (README.md, "Departures from the paper"): quantify the design
// decisions.

// BenchmarkAblation_MmapGranularity: the cost of mapping N pages one call
// at a time vs one ranged call — the first-order effect behind Fig. 6's
// consecutive-run optimization, isolated at the vmsim layer.
func BenchmarkAblation_MmapGranularity(b *testing.B) {
	const n = 2048
	for _, mode := range []string{"page_at_a_time", "single_ranged_call"} {
		b.Run(mode, func(b *testing.B) {
			k := vmsim.NewKernel(0)
			f, err := k.CreateFile("f", n)
			if err != nil {
				b.Fatal(err)
			}
			as := k.NewAddressSpace()
			as.SetMaxMapCount(1 << 30)
			addr, err := as.MmapAnon(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "page_at_a_time" {
					for p := 0; p < n; p++ {
						if err := as.MmapFileFixed(addr+vmsim.Addr(p*vmsim.PageSize), f, p, 1); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					if err := as.MmapFileFixed(addr, f, 0, n); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(n), "pages/op")
		})
	}
}

// BenchmarkAblation_PageHeader: scan cost of the 24-byte header layout
// (pageID + zones, 509 values) vs a headerless 512-value page — what the
// embedded metadata costs every scan.
func BenchmarkAblation_PageHeader(b *testing.B) {
	page := make([]byte, storage.PageSize)
	for i := 0; i < storage.ValuesPerPage; i++ {
		storage.SetValueAt(page, i, uint64(i*2654435761)%benchDomain)
	}
	b.Run("with_header_509", func(b *testing.B) {
		b.SetBytes(storage.PageSize)
		for i := 0; i < b.N; i++ {
			_ = storage.ScanFilter(page, 1000, 50_000_000)
		}
	})
	b.Run("headerless_512", func(b *testing.B) {
		raw := make([]uint64, 512)
		for i := range raw {
			raw[i] = uint64(i*2654435761) % benchDomain
		}
		b.SetBytes(storage.PageSize)
		for i := 0; i < b.N; i++ {
			count, sum := 0, uint64(0)
			for _, v := range raw {
				if v >= 1000 && v <= 50_000_000 {
					count++
					sum += v
				}
			}
			_ = count
			_ = sum
		}
	})
}

// BenchmarkAblation_RemoveCompaction: removing a view page from the middle
// (compaction rewires the last page into the hole: one mmap + one munmap)
// vs removing the last page (one munmap). The delta is what keeping scans
// dense costs per removal.
func BenchmarkAblation_RemoveCompaction(b *testing.B) {
	for _, mode := range []string{"remove_middle_compacts", "remove_last"} {
		b.Run(mode, func(b *testing.B) {
			col := benchColumn(b, 512, dist.NewUniform(1, 0, 1000))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				vs, err := view.Build(col, []view.Spec{{Lo: 0, Hi: ^uint64(0), Opts: view.CreateOptions{Consecutive: true}}}, nil)
				if err != nil {
					b.Fatal(err)
				}
				v := vs[0]
				slot := 0
				if mode == "remove_last" {
					slot = v.NumPages() - 1
				}
				b.StartTimer()
				if _, err := v.RemovePageAt(slot); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				v.Release()
				b.StartTimer()
			}
		})
	}
}
