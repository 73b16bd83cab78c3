// Benchmarks regenerating the cost core of every table and figure in the
// paper's evaluation (§3). Each benchmark measures the operation the
// corresponding plot reports — per-query latency (Fig. 3/4/5), view
// creation time (Fig. 6), batch alignment time (Fig. 7), accumulated
// sequence time (Table 1) — at a bench-friendly scale. The full-scale
// series with the paper's exact workloads come from cmd/asvbench; see
// EXPERIMENTS.md for the paper-vs-measured comparison.
//
// Ablation benchmarks at the bottom quantify the design decisions called
// out in DESIGN.md §4.
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
		v, err := view.Create(col, lo, hi, opts, mapper)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := v.Release(); err != nil {
			b.Fatal(err)
		}
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
// Figure 7: update performance vs batch size. One iteration = aligning
// five 1/1024-wide views with a batch (setup untimed), plus a sub-bench
// for the rebuild alternative.

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
		batchUpdates := make([]core.Update, 0, len(ups))
		for _, u := range ups {
			old, err := col.SetValue(u.Row, u.Value)
			if err != nil {
				b.Fatal(err)
			}
			batchUpdates = append(batchUpdates, core.Update{Row: u.Row, Old: old, New: u.Value})
		}
		b.StartTimer()

		if rebuild {
			if err := eng.RebuildViews(); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := eng.AlignViews(batchUpdates); err != nil {
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
// Concurrency (beyond the paper): intra-query parallel scan kernels and
// multi-client throughput. On a single-core runner the parallel variants
// fall back to (and must not regress against) the serial path; on
// multi-core CI the serial-vs-parallel delta is the speedup the
// Parallelism knob buys.

// BenchmarkQueryParallel measures one full-column range scan through the
// engine, serial vs page-sharded workers. The query range is chosen so no
// partial view can cover it (every iteration pays a full scan), isolating
// the kernel cost.
func BenchmarkQueryParallel(b *testing.B) {
	for _, v := range []struct {
		name    string
		workers int
	}{
		{"serial", 0},
		{"workers2", 2},
		{"gomaxprocs", -1},
	} {
		b.Run(v.name, func(b *testing.B) {
			col := benchColumn(b, benchPages, dist.NewUniform(42, 0, benchDomain))
			// Thread the worker count through Config.Parallelism: its zero
			// value is the true serial loop (the Workers option would remap
			// workers<=0 to GOMAXPROCS and erase the baseline).
			cfg := core.BaselineConfig()
			cfg.Parallelism = v.workers
			eng, err := core.NewEngine(col, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.SetBytes(int64(benchPages) * storage.PageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.QueryOpt(0, benchDomain/2, core.QueryOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if res.PagesScanned != benchPages {
					b.Fatalf("scanned %d pages", res.PagesScanned)
				}
			}
		})
	}
}

// BenchmarkConcurrentClients measures adaptive-engine throughput under N
// concurrent clients firing deterministic per-client streams at one
// shared column — the harness `concurrent` panel at bench scale. One
// iteration = every client completes one query.
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

// BenchmarkConcurrentUpdaters measures multi-writer update throughput on
// the sharded write path against the single-buffer baseline — the
// harness `updates` panel's write side at bench scale. One iteration =
// every writer lands one group commit of 64 rows.
func BenchmarkConcurrentUpdaters(b *testing.B) {
	const group = 64
	for _, v := range []struct {
		name   string
		shards int
	}{
		{"singlebuffer", 1},
		{"sharded", 0}, // GOMAXPROCS shards
	} {
		for _, writers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/writers%d", v.name, writers), func(b *testing.B) {
				col := benchColumn(b, benchPages, dist.NewSine(42, 0, benchDomain, 100))
				cfg := core.DefaultConfig()
				cfg.UpdateShards = v.shards
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
			b.ReportMetric(float64(writers), "updates/op")
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
// Ablations (DESIGN.md §4): quantify the design decisions.

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
				v, err := view.Create(col, 0, ^uint64(0), view.CreateOptions{Consecutive: true}, nil)
				if err != nil {
					b.Fatal(err)
				}
				slot := 0
				if mode == "remove_last" {
					slot = v.NumPages() - 1
				}
				b.StartTimer()
				if _, err := v.RemovePageAt(slot); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				_ = v.Release()
				b.StartTimer()
			}
		})
	}
}
