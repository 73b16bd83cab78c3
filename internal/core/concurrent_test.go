package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/viewset"
	"github.com/asv-db/asv/internal/vmsim"
	"github.com/asv-db/asv/internal/workload"
	"github.com/asv-db/asv/internal/xrand"
)

const ccDomain = 1_000_000

// TestQueryParallelEquivalence is the engine-level equivalence table: for
// every registered generator and both routing modes, a full adaptive
// query sequence cycling through plain, Aggregate and Rows queries must
// answer each query exactly as a brute-force walk of the column does,
// and every view it adapts must index exactly the pages that qualify for
// its range. The sequence runs once under the default
// view limit (every query builds a candidate: the kernels run with
// boundary observations) and once under a limit of one view (where
// candidates are kept at all, the second freezes the set: no builder, no
// bounds).
func TestQueryParallelEquivalence(t *testing.T) {
	const pages = 96
	queries := workload.SelectivitySweep(11, 30, ccDomain, ccDomain/2, ccDomain/100)
	building, frozen := 0, 0 // queries answered with and without a candidate
	for _, name := range dist.Names() {
		for _, mode := range []Mode{SingleView, MultiView} {
			t.Run(fmt.Sprintf("%s_%s", name, mode), func(t *testing.T) {
				for _, maxViews := range []int{DefaultConfig().MaxViews, 1} {
					g, err := dist.ByName(name, 5, 0, ccDomain, pages)
					if err != nil {
						t.Fatal(err)
					}
					cfg := syncConfig()
					cfg.Mode = mode
					cfg.MaxViews = maxViews
					e := newEngine(t, testColumn(t, pages, g), cfg)
					model := newRefModel(e.col)
					for i, q := range queries {
						opt := materializations(i)
						ans, err := e.QueryOpt(q.Lo, q.Hi, opt)
						if err != nil {
							t.Fatal(err)
						}
						model.check(t, fmt.Sprintf("max %d views, query %d", maxViews, i), q.Lo, q.Hi, opt, ans)
						if ans.CandidateBuilt {
							building++
						} else {
							frozen++
						}
					}
					for i := range e.Views() {
						checkViewInvariant(t, e, i)
					}
				}
			})
		}
	}
	if building == 0 || frozen == 0 {
		t.Fatalf("%d queries built a candidate, %d ran on a frozen set: the table must cover both", building, frozen)
	}
}

// TestBaselineParallelEquivalence checks the scan at its edges on the
// one-source route a baseline engine runs: for every registered
// generator, every materialization, and ranges from everything to
// nothing, the answer equals the column's FullScan exactly.
func TestBaselineParallelEquivalence(t *testing.T) {
	const pages = 96
	ranges := [][2]uint64{
		{0, ccDomain}, // everything
		{0, 0},        // single point at the bottom
		{ccDomain / 4, ccDomain / 2},
		{ccDomain - 10, ccDomain},  // top sliver
		{ccDomain + 1, ^uint64(0)}, // nothing qualifies
	}
	for _, name := range dist.Names() {
		t.Run(name, func(t *testing.T) {
			g, err := dist.ByName(name, 7, 0, ccDomain, pages)
			if err != nil {
				t.Fatal(err)
			}
			col := testColumn(t, pages, g)
			eng := newEngine(t, col, BaselineConfig())
			model := newRefModel(col)
			for _, r := range ranges {
				wantCount, wantSum, err := col.FullScan(r[0], r[1])
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 4; i++ {
					opt := materializations(i)
					got, err := eng.QueryOpt(r[0], r[1], opt)
					if err != nil {
						t.Fatal(err)
					}
					if got.Count != wantCount || got.Sum != wantSum || got.PagesScanned != pages {
						t.Errorf("[%d,%d] %+v: got %+v, want (%d,%d) over %d pages",
							r[0], r[1], opt, got.QueryResult, wantCount, wantSum, pages)
					}
					model.check(t, fmt.Sprintf("%+v", opt), r[0], r[1], opt, got)
				}
			}
		})
	}
}

// TestConcurrentAdaptiveQueries hammers one adaptive engine from many
// goroutines and then validates every answer against a serial baseline
// engine over the same column: concurrent routing, scanning, and view
// publication must never change a result.
func TestConcurrentAdaptiveQueries(t *testing.T) {
	const (
		pages   = 128
		clients = 8
	)
	col := testColumn(t, pages, dist.NewSine(9, 0, ccDomain, 16))
	for _, mode := range []Mode{SingleView, MultiView} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig() // background mapper on: the full §2.3 path
			cfg.Mode = mode
			eng := newEngine(t, col, cfg)
			streams := workload.ConcurrentClients(21, clients, 40, ccDomain, 0.02)

			type got struct {
				q     workload.Query
				count int
				sum   uint64
			}
			results := make([][]got, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for _, q := range streams[c] {
						res, err := eng.QueryOpt(q.Lo, q.Hi, QueryOptions{})
						if err != nil {
							t.Error(err)
							return
						}
						results[c] = append(results[c], got{q, res.Count, res.Sum})
					}
				}(c)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			baseline := newEngine(t, col, BaselineConfig())
			for c := range results {
				for _, r := range results[c] {
					want, err := baseline.QueryOpt(r.q.Lo, r.q.Hi, QueryOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if r.count != want.Count || r.sum != want.Sum {
						t.Fatalf("client %d [%d,%d]: concurrent (%d,%d) != serial (%d,%d)",
							c, r.q.Lo, r.q.Hi, r.count, r.sum, want.Count, want.Sum)
					}
				}
			}
		})
	}
}

// TestConcurrentQueryVsUpdate races readers against a writer on one
// column: goroutines fire queries while another applies update bursts and
// flushes. Every individual answer must be internally consistent (the
// collecting and filtering passes agree — an aggregate query checks
// this inline), and after the storm the engine must converge to the serial
// truth.
func TestConcurrentQueryVsUpdate(t *testing.T) {
	const (
		pages   = 96
		readers = 4
		bursts  = 20
	)
	col := testColumn(t, pages, dist.NewUniform(3, 0, ccDomain))
	eng := newEngine(t, col, syncConfig())

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := xrand.New(uint64(100 + r))
			for i := 0; i < 50; i++ {
				lo := rng.Uint64n(ccDomain)
				hi := lo + rng.Uint64n(ccDomain/10)
				if _, err := eng.QueryOpt(lo, hi, QueryOptions{ComputeAggregate: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := xrand.New(7)
		for b := 0; b < bursts; b++ {
			for i := 0; i < 25; i++ {
				if err := eng.Update(rng.Intn(col.Rows()), rng.Uint64n(ccDomain)); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := eng.FlushUpdates(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Convergence: with the writer quiet, adaptive answers equal a raw
	// column scan.
	if n := eng.PendingUpdates(); n != 0 {
		t.Fatalf("%d updates still pending after flush", n)
	}
	for _, q := range [][2]uint64{{0, ccDomain}, {ccDomain / 3, ccDomain / 2}, {0, 1000}} {
		wantCount, wantSum, err := col.FullScan(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.QueryOpt(q[0], q[1], QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != wantCount || res.Sum != wantSum {
			t.Fatalf("[%d,%d]: engine (%d,%d) != column (%d,%d)",
				q[0], q[1], res.Count, res.Sum, wantCount, wantSum)
		}
	}
}

// TestConcurrentColumnsSharedKernel drives adaptive engines on several
// columns that share one simulated kernel and address space — the DB
// topology — from concurrent goroutines: per-column locks must not be
// needed for cross-column parallelism, and the shared VM layer must hold
// up under concurrent mapping traffic.
func TestConcurrentColumnsSharedKernel(t *testing.T) {
	const (
		columns = 4
		pages   = 64
	)
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1 << 30)

	cols := make([]*storage.Column, columns)
	engines := make([]*Engine, columns)
	for i := range cols {
		c, err := storage.NewColumn(k, as, fmt.Sprintf("col%d", i), pages)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Fill(dist.NewClustered(uint64(i+1), 0, ccDomain, 0.05)); err != nil {
			t.Fatal(err)
		}
		cols[i] = c
		engines[i] = newEngine(t, c, DefaultConfig())
	}

	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, q := range workload.ConcurrentClients(33, columns, 40, ccDomain, 0.05)[i] {
				if _, err := engines[i].QueryOpt(q.Lo, q.Hi, QueryOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, eng := range engines {
		wantCount, wantSum, err := cols[i].FullScan(0, ccDomain/2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.QueryOpt(0, ccDomain/2, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != wantCount || res.Sum != wantSum {
			t.Fatalf("column %d: engine (%d,%d) != scan (%d,%d)",
				i, res.Count, res.Sum, wantCount, wantSum)
		}
	}
}

// TestConcurrentStatsAndViewsReads polls the observability surface
// (Stats, Views, String, PendingUpdates) while queries and updates run —
// snapshots must be race-free and monotonic.
func TestConcurrentStatsAndViewsReads(t *testing.T) {
	col := testColumn(t, 64, dist.NewUniform(5, 0, ccDomain))
	eng := newEngine(t, col, syncConfig())

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastQueries uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			st := eng.Stats()
			if st.Queries < lastQueries {
				t.Errorf("queries counter went backwards: %d -> %d", lastQueries, st.Queries)
				return
			}
			lastQueries = st.Queries
			_ = eng.Views()
			_ = eng.String()
			_ = eng.PendingUpdates()
		}
	}()
	rng := xrand.New(1)
	for i := 0; i < 200; i++ {
		lo := rng.Uint64n(ccDomain)
		if _, err := eng.QueryOpt(lo, lo+ccDomain/50, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := eng.Update(rng.Intn(col.Rows()), rng.Uint64n(ccDomain)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()

	st := eng.Stats()
	if st.Queries == 0 || st.PagesScanned == 0 {
		t.Fatalf("stats not accumulated: %+v", st)
	}
}

// TestStaleCandidateDiscarded pins the TOCTOU window between the
// read-locked scan that builds a candidate and the write-locked retention
// decision that publishes it: if an update alignment or a view rebuild
// runs in that window, the candidate's page set was built from pre-flush
// state and alignment (which only walks set members) can never repair it,
// so publishCandidate must discard it instead of publishing a view that
// would answer every future routed query incorrectly.
func TestStaleCandidateDiscarded(t *testing.T) {
	col := testColumn(t, 64, dist.NewClustered(7, 0, ccDomain, 0.05))
	eng := newEngine(t, col, syncConfig())

	scan := func(lo, hi uint64) (*view.View, uint64) {
		t.Helper()
		st := eng.acquireState()
		defer eng.releaseState(st)
		_, cand, err := eng.scanState(st, lo, hi, nil, nil, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cand == nil {
			t.Fatal("no candidate built")
		}
		return cand, st.gen
	}

	// No intervening mutation: the candidate publishes normally.
	cand, gen := scan(100, ccDomain/10)
	dec, displaced := eng.publishCandidate(cand, gen)
	if dec != viewset.Inserted || displaced != nil {
		t.Fatalf("fresh candidate: %v (displaced %v), want inserted", dec, displaced)
	}
	eng.applyDecision(dec, cand, displaced)

	// An Update+FlushUpdates pair lands in the window: stale.
	cand, gen = scan(ccDomain/2, ccDomain/2+ccDomain/10)
	if err := eng.Update(0, ccDomain/2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FlushUpdates(); err != nil {
		t.Fatal(err)
	}
	dec, displaced = eng.publishCandidate(cand, gen)
	if dec != viewset.DiscardedStale {
		t.Fatalf("post-flush candidate: %v, want %v", dec, viewset.DiscardedStale)
	}
	eng.applyDecision(dec, cand, displaced)

	// A rebuild lands in the window: stale (the rebuild dropped the
	// pending list, so no later flush would carry the batch either).
	cand, gen = scan(ccDomain/4, ccDomain/4+ccDomain/10)
	if err := eng.RebuildViews(); err != nil {
		t.Fatal(err)
	}
	dec, displaced = eng.publishCandidate(cand, gen)
	if dec != viewset.DiscardedStale {
		t.Fatalf("post-rebuild candidate: %v, want %v", dec, viewset.DiscardedStale)
	}
	eng.applyDecision(dec, cand, displaced)
	if st := eng.Stats(); st.ViewsDiscarded != 2 {
		t.Fatalf("ViewsDiscarded = %d, want 2", st.ViewsDiscarded)
	}
}

// TestCloseDiscardsLateCandidates checks the companion hazard: a query
// whose candidate publication races with Close must not insert into the
// cleared set — that would leak the candidate's mapping and leave the
// closed engine with views, violating Close's "releases all partial
// views" contract.
func TestCloseDiscardsLateCandidates(t *testing.T) {
	col := testColumn(t, 64, dist.NewClustered(8, 0, ccDomain, 0.05))
	eng := newEngine(t, col, syncConfig())

	// Sanity: the engine adapts while open.
	res, err := eng.QueryOpt(0, ccDomain/20, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CandidateBuilt || res.Decision != viewset.Inserted {
		t.Fatalf("pre-close query did not adapt: %+v", res)
	}
	// A scan in flight when Close lands: its candidate must be discarded,
	// never inserted into the cleared set.
	st := eng.acquireState()
	_, cand, err := eng.scanState(st, ccDomain/3, ccDomain/3+ccDomain/20, nil, nil, true, nil)
	gen := st.gen
	eng.releaseState(st)
	if err != nil {
		t.Fatal(err)
	}
	if cand == nil {
		t.Fatal("no candidate built")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	dec, displaced := eng.publishCandidate(cand, gen)
	if dec != viewset.DiscardedStale {
		t.Fatalf("candidate racing Close: %v, want %v", dec, viewset.DiscardedStale)
	}
	eng.applyDecision(dec, cand, displaced)

	// The full view outlives Close (the column owns it), so queries still
	// answer — but a closed engine skips candidate construction entirely.
	res, err = eng.QueryOpt(ccDomain/2, ccDomain/2+ccDomain/20, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidateBuilt {
		t.Fatalf("post-close query built a candidate: %+v", res)
	}
	if n := len(eng.Views()); n != 0 {
		t.Fatalf("closed engine holds %d partial views", n)
	}
}

// TestRebuildUnderReaders: live adaptive readers and one open Snapshot
// query while RebuildViews and the autopilot's per-view rebuild loop.
// Every answer equals a full column scan (no writer runs, so the column
// never changes), and once the snapshot and the engine are closed the
// VMA and frame counts are back at the fresh engine's.
func TestRebuildUnderReaders(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			col := testColumn(t, 64, dist.NewSine(23, 0, ccDomain, 8))
			cfg := DefaultConfig() // concurrent mapper: rebuilds and candidates share it
			cfg.Mode = MultiView
			cfg.Create.Lazy = lazy
			e := newEngine(t, col, cfg)
			as, k := col.Space(), col.Kernel()
			vmas, frames := as.VMACount(), k.FramesInUse()

			queries := workload.SelectivitySweep(3, 16, ccDomain, ccDomain/4, ccDomain/50)
			type answer struct {
				count int
				sum   uint64
			}
			want := make([]answer, len(queries))
			for i, q := range queries {
				c, s, err := col.FullScan(q.Lo, q.Hi)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = answer{c, s}
			}
			if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: 0, Hi: ccDomain / 8, Pinned: true}, {Lo: ccDomain / 2, Hi: 3 * ccDomain / 4}}); err != nil {
				t.Fatal(err)
			}
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			// Each reader runs a fixed number of queries; the rebuilds loop
			// until every reader is done, so the two always overlap.
			const perReader = 150
			var wg sync.WaitGroup
			read := func(id int, query func(lo, hi uint64) (Answer, error)) {
				defer wg.Done()
				for i := id; i < id+perReader; i++ {
					q := queries[i%len(queries)]
					ans, err := query(q.Lo, q.Hi)
					if err != nil {
						t.Error(err)
						return
					}
					if w := want[i%len(queries)]; ans.Count != w.count || ans.Sum != w.sum {
						t.Errorf("reader %d query [%d,%d]: (%d,%d), want (%d,%d)", id, q.Lo, q.Hi, ans.Count, ans.Sum, w.count, w.sum)
						return
					}
				}
			}
			for id := 0; id < 3; id++ {
				wg.Add(1)
				go read(id, func(lo, hi uint64) (Answer, error) { return e.QueryOpt(lo, hi, QueryOptions{}) })
			}
			wg.Add(1)
			go read(7, func(lo, hi uint64) (Answer, error) { return snap.QueryOpt(lo, hi, QueryOptions{}) })
			readersDone := make(chan struct{})
			go func() {
				wg.Wait()
				close(readersDone)
			}()

		loop:
			for {
				if err := e.RebuildViews(); err != nil {
					t.Error(err)
					break
				}
				for _, v := range e.Views() {
					if _, err := (pilotTarget{e}).RebuildView(v); err != nil {
						t.Error(err)
					}
				}
				select {
				case <-readersDone:
					break loop
				default:
				}
			}
			<-readersDone
			snap.Close()
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if got := as.VMACount(); got != vmas {
				t.Fatalf("VMACount = %d after Close, want the fresh engine's %d", got, vmas)
			}
			if got := k.FramesInUse(); got != frames {
				t.Fatalf("FramesInUse = %d after Close, want the fresh engine's %d", got, frames)
			}
		})
	}
}
