package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/viewset"
	"github.com/asv-db/asv/internal/workload"
	"github.com/asv-db/asv/internal/xrand"
)

// alignTestRanges are the pinned view ranges of the alignment
// equivalence tests: overlapping, disjoint, and narrow slices of the
// ccDomain.
var alignTestRanges = [][2]uint64{
	{0, ccDomain / 8},
	{ccDomain / 10, ccDomain / 4},
	{ccDomain / 2, ccDomain/2 + ccDomain/16},
	{9 * ccDomain / 10, ccDomain - 1},
}

// alignEngine builds an engine over a fresh column of the generator with
// the pinned test views and the given scan/alignment parallelism.
func alignEngine(t *testing.T, g dist.Generator, pages, parallelism int) *Engine {
	t.Helper()
	cfg := syncConfig()
	cfg.Parallelism = parallelism
	e := newEngine(t, testColumn(t, pages, g), cfg)
	for _, r := range alignTestRanges {
		if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: r[0], Hi: r[1], Pinned: true}}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestAlignParallelEquivalence is the serial-vs-parallel alignment
// equivalence table: for every registered generator, one update batch
// aligned with fanned-out per-view workers must produce identical
// UpdateStats (PagesAdded, PagesRemoved, PagesScanned — plus the batch
// shape) and identical post-alignment query answers to the serial walk
// on an identical column.
func TestAlignParallelEquivalence(t *testing.T) {
	const pages = 64
	for _, name := range dist.Names() {
		t.Run(name, func(t *testing.T) {
			g, err := dist.ByName(name, 5, 0, ccDomain, pages)
			if err != nil {
				t.Fatal(err)
			}
			serial := alignEngine(t, g, pages, 0)
			parallel := alignEngine(t, g, pages, 3)

			ups := workload.UniformUpdates(77, 800, serial.Column().Rows(), 0, ccDomain)
			for _, e := range []*Engine{serial, parallel} {
				for _, u := range ups {
					if err := e.Update(u.Row, u.Value); err != nil {
						t.Fatal(err)
					}
				}
			}
			ss, err := serial.FlushUpdates()
			if err != nil {
				t.Fatal(err)
			}
			ps, err := parallel.FlushUpdates()
			if err != nil {
				t.Fatal(err)
			}
			if ss.PagesAdded != ps.PagesAdded || ss.PagesRemoved != ps.PagesRemoved ||
				ss.PagesScanned != ps.PagesScanned {
				t.Fatalf("alignment diverged: serial +%d/-%d/~%d, parallel +%d/-%d/~%d",
					ss.PagesAdded, ss.PagesRemoved, ss.PagesScanned,
					ps.PagesAdded, ps.PagesRemoved, ps.PagesScanned)
			}
			if ss.BatchSize != ps.BatchSize || ss.NetUpdates != ps.NetUpdates || ss.DirtyPages != ps.DirtyPages {
				t.Fatalf("batch shape diverged: %+v vs %+v", ss, ps)
			}
			for i := range serial.Views() {
				checkViewInvariant(t, serial, i)
				checkViewInvariant(t, parallel, i)
			}
			// Post-alignment answers match each other and the ground truth.
			for _, r := range alignTestRanges {
				wantCount, wantSum, err := serial.Column().FullScan(r[0], r[1])
				if err != nil {
					t.Fatal(err)
				}
				rs, err := serial.QueryOpt(r[0], r[1], QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				rp, err := parallel.QueryOpt(r[0], r[1], QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if rs.Count != wantCount || rs.Sum != wantSum || rp.Count != wantCount || rp.Sum != wantSum {
					t.Fatalf("post-align query [%d,%d]: serial (%d,%d), parallel (%d,%d), want (%d,%d)",
						r[0], r[1], rs.Count, rs.Sum, rp.Count, rp.Sum, wantCount, wantSum)
				}
			}
		})
	}
}

// TestShardedUpdateDeterminism checks the sharded pending buffers
// against the single-buffer write path: disjoint-row writer streams
// applied concurrently must flush to exactly the batch a serial
// application produces — same squashed shape, same page movement, same
// final column state — regardless of shard count or scheduling.
func TestShardedUpdateDeterminism(t *testing.T) {
	const (
		pages   = 64
		writers = 4
	)
	g := dist.NewSine(3, 0, ccDomain, 8)
	mk := func(shards int) *Engine {
		cfg := syncConfig()
		cfg.UpdateShards = shards
		e := newEngine(t, testColumn(t, pages, g), cfg)
		for _, r := range alignTestRanges {
			if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: r[0], Hi: r[1], Pinned: true}}); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	serial := mk(1)
	sharded := mk(8)

	// Disjoint rows per writer (row ≡ writer mod writers): per-row update
	// order is then independent of goroutine interleaving.
	streams := workload.ConcurrentUpdaters(11, writers, 400, serial.Column().Rows(), 0, ccDomain)
	for w := range streams {
		for i := range streams[w] {
			r := streams[w][i].Row
			streams[w][i].Row = r - r%writers + w
		}
	}

	for _, stream := range streams {
		for _, u := range stream {
			if err := serial.Update(u.Row, u.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for _, stream := range streams {
		wg.Add(1)
		go func(stream []workload.PointUpdate) {
			defer wg.Done()
			for _, u := range stream {
				if err := sharded.Update(u.Row, u.Value); err != nil {
					t.Error(err)
					return
				}
			}
		}(stream)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got, want := sharded.PendingUpdates(), serial.PendingUpdates(); got != want {
		t.Fatalf("pending: sharded %d, serial %d", got, want)
	}

	ss, err := serial.FlushUpdates()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sharded.FlushUpdates()
	if err != nil {
		t.Fatal(err)
	}
	if ss.BatchSize != ps.BatchSize || ss.NetUpdates != ps.NetUpdates || ss.DirtyPages != ps.DirtyPages ||
		ss.PagesAdded != ps.PagesAdded || ss.PagesRemoved != ps.PagesRemoved || ss.PagesScanned != ps.PagesScanned {
		t.Fatalf("flush diverged:\nserial  %+v\nsharded %+v", ss, ps)
	}
	for i := range serial.Views() {
		sIDs, err := serial.Views()[i].PageIDs()
		if err != nil {
			t.Fatal(err)
		}
		pIDs, err := sharded.Views()[i].PageIDs()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sIDs) != fmt.Sprint(pIDs) {
			t.Fatalf("view %d page sets diverged:\n%v\n%v", i, sIDs, pIDs)
		}
	}
	for _, r := range alignTestRanges {
		sc, su, err := serial.Column().FullScan(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		pc, pu, err := sharded.Column().FullScan(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if sc != pc || su != pu {
			t.Fatalf("final column state diverged over [%d,%d]", r[0], r[1])
		}
	}
}

// TestConcurrentShardedUpdateStress races Update and UpdateBatch writers
// against queries, explicit flushes and observer polls on the sharded
// write path with parallel alignment — the -race exercise of the whole
// room-lock discipline. Afterwards the engine must converge to the
// column's ground truth.
func TestConcurrentShardedUpdateStress(t *testing.T) {
	const (
		pages   = 96
		writers = 4
		readers = 3
	)
	col := testColumn(t, pages, dist.NewClustered(9, 0, ccDomain, 0.05))
	cfg := syncConfig()
	cfg.UpdateShards = 8
	cfg.Parallelism = 2
	eng := newEngine(t, col, cfg)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(1000 + w))
			if w%2 == 0 {
				// Lone updates.
				for i := 0; i < 300; i++ {
					if err := eng.Update(rng.Intn(col.Rows()), rng.Uint64n(ccDomain)); err != nil {
						t.Error(err)
						return
					}
				}
				return
			}
			// Group commits.
			for b := 0; b < 20; b++ {
				ws := make([]RowWrite, 15)
				for i := range ws {
					ws[i] = RowWrite{Row: rng.Intn(col.Rows()), Value: rng.Uint64n(ccDomain)}
				}
				if err := eng.UpdateBatch(ws); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := xrand.New(uint64(2000 + r))
			for i := 0; i < 40; i++ {
				lo := rng.Uint64n(ccDomain)
				if _, err := eng.QueryOpt(lo, lo+rng.Uint64n(ccDomain/10), QueryOptions{ComputeAggregate: true}); err != nil {
					t.Error(err)
					return
				}
				_ = eng.PendingUpdates()
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
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

	if _, err := eng.FlushUpdates(); err != nil {
		t.Fatal(err)
	}
	if n := eng.PendingUpdates(); n != 0 {
		t.Fatalf("%d updates still pending", n)
	}
	for _, q := range [][2]uint64{{0, ccDomain}, {ccDomain / 4, ccDomain / 2}, {0, 5000}} {
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
	if st := eng.Stats(); st.UpdatesBuffered != writers/2*300+writers/2*20*15 {
		t.Fatalf("UpdatesBuffered = %d", st.UpdatesBuffered)
	}
}

// TestUpdateBatchMatchesUpdates pins UpdateBatch's contract: a group
// commit is semantically identical to the same sequence of lone Update
// calls, and an invalid row mid-batch leaves the valid prefix applied
// and buffered.
func TestUpdateBatchMatchesUpdates(t *testing.T) {
	g := dist.NewUniform(1, 0, ccDomain)
	lone := newEngine(t, testColumn(t, 32, g), syncConfig())
	batched := newEngine(t, testColumn(t, 32, g), syncConfig())
	ups := workload.UniformUpdates(3, 120, lone.Column().Rows(), 0, ccDomain)

	for _, u := range ups {
		if err := lone.Update(u.Row, u.Value); err != nil {
			t.Fatal(err)
		}
	}
	ws := make([]RowWrite, len(ups))
	for i, u := range ups {
		ws[i] = RowWrite{Row: u.Row, Value: u.Value}
	}
	if err := batched.UpdateBatch(ws[:50]); err != nil {
		t.Fatal(err)
	}
	if err := batched.UpdateBatch(ws[50:]); err != nil {
		t.Fatal(err)
	}
	if lone.PendingUpdates() != batched.PendingUpdates() {
		t.Fatalf("pending: %d vs %d", lone.PendingUpdates(), batched.PendingUpdates())
	}
	ls, err := lone.FlushUpdates()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := batched.FlushUpdates()
	if err != nil {
		t.Fatal(err)
	}
	if ls.BatchSize != bs.BatchSize || ls.NetUpdates != bs.NetUpdates || ls.DirtyPages != bs.DirtyPages {
		t.Fatalf("flush shapes differ: %+v vs %+v", ls, bs)
	}
	wantCount, wantSum, _ := lone.Column().FullScan(0, ccDomain)
	gotCount, gotSum, _ := batched.Column().FullScan(0, ccDomain)
	if wantCount != gotCount || wantSum != gotSum {
		t.Fatal("column states diverged")
	}

	// Error mid-batch: the prefix stays applied.
	bad := []RowWrite{{Row: 0, Value: 1}, {Row: 1, Value: 2}, {Row: -7, Value: 3}, {Row: 2, Value: 4}}
	if err := batched.UpdateBatch(bad); err == nil {
		t.Fatal("invalid row accepted")
	}
	if got := batched.PendingUpdates(); got != 2 {
		t.Fatalf("pending after failed batch = %d, want 2", got)
	}
	if v, _ := batched.Column().Value(2); v == 4 {
		t.Fatal("write after failing element was applied")
	}
	if err := batched.UpdateBatch(nil); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyFlushNotCounted pins the UpdateBatches counter fix: no-op
// flushes (and empty AlignViews calls) must not count as update batches,
// or per-batch averages skew.
func TestEmptyFlushNotCounted(t *testing.T) {
	col := testColumn(t, 16, dist.NewUniform(1, 0, 1000))
	e := newEngine(t, col, syncConfig())
	if _, err := e.FlushUpdates(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().UpdateBatches; got != 0 {
		t.Fatalf("empty flush counted: UpdateBatches = %d", got)
	}
	if _, err := e.AlignViews(nil); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().UpdateBatches; got != 0 {
		t.Fatalf("empty AlignViews counted: UpdateBatches = %d", got)
	}
	if err := e.Update(3, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FlushUpdates(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().UpdateBatches; got != 1 {
		t.Fatalf("non-empty flush: UpdateBatches = %d, want 1", got)
	}
	if _, err := e.FlushUpdates(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().UpdateBatches; got != 1 {
		t.Fatalf("trailing empty flush counted: UpdateBatches = %d", got)
	}
}

// rebuildTestEngine builds an engine with three pinned views for the
// RebuildViews fault-injection tests.
func rebuildTestEngine(t *testing.T) *Engine {
	t.Helper()
	col := testColumn(t, 64, dist.NewSine(17, 0, ccDomain, 8))
	e := newEngine(t, col, syncConfig())
	for _, r := range [][2]uint64{{0, ccDomain / 8}, {ccDomain / 4, ccDomain / 3}, {ccDomain / 2, 3 * ccDomain / 4}} {
		if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: r[0], Hi: r[1], Pinned: true}}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestRebuildViewsReleaseError: a failing release mid-rebuild must not
// leak the remaining old views or drop any range from the rebuilt set —
// all ranges are rebuilt and the first release error is reported.
func TestRebuildViewsReleaseError(t *testing.T) {
	e := rebuildTestEngine(t)
	ranges := [][2]uint64{}
	for _, v := range e.Views() {
		ranges = append(ranges, [2]uint64{v.Lo(), v.Hi()})
	}
	boom := errors.New("injected release failure")
	calls, released := 0, 0
	e.releaseHook = func(v *view.View) error {
		calls++
		if calls == 2 {
			return boom // the view's area stays mapped; rebuild must go on
		}
		released++
		return v.Release()
	}
	err := e.RebuildViews()
	e.releaseHook = nil
	if !errors.Is(err, boom) {
		t.Fatalf("RebuildViews error = %v, want injected failure", err)
	}
	if calls != 3 || released != 2 {
		t.Fatalf("release loop stopped early: %d calls, %d released", calls, released)
	}
	vs := e.Views()
	if len(vs) != len(ranges) {
		t.Fatalf("rebuilt %d views, want %d — ranges were dropped", len(vs), len(ranges))
	}
	for i, v := range vs {
		if v.Lo() != ranges[i][0] || v.Hi() != ranges[i][1] {
			t.Fatalf("view %d range [%d,%d], want %v", i, v.Lo(), v.Hi(), ranges[i])
		}
		checkViewInvariant(t, e, i)
	}
}

// TestRebuildViewsCreateError: a failing view creation mid-rebuild must
// not abandon the later ranges — they are still rebuilt, and the first
// creation error is reported.
func TestRebuildViewsCreateError(t *testing.T) {
	e := rebuildTestEngine(t)
	ranges := [][2]uint64{}
	for _, v := range e.Views() {
		ranges = append(ranges, [2]uint64{v.Lo(), v.Hi()})
	}
	boom := errors.New("injected create failure")
	e.createHook = func(lo, hi uint64) (*view.View, error) {
		if lo == ranges[1][0] && hi == ranges[1][1] {
			return nil, boom
		}
		return view.Create(e.col, lo, hi, e.cfg.Create, e.mapper)
	}
	err := e.RebuildViews()
	e.createHook = nil
	if !errors.Is(err, boom) {
		t.Fatalf("RebuildViews error = %v, want injected failure", err)
	}
	vs := e.Views()
	if len(vs) != 2 {
		t.Fatalf("rebuilt %d views, want 2 (all ranges but the failing one)", len(vs))
	}
	want := [][2]uint64{ranges[0], ranges[2]}
	for i, v := range vs {
		if v.Lo() != want[i][0] || v.Hi() != want[i][1] {
			t.Fatalf("view %d range [%d,%d], want %v", i, v.Lo(), v.Hi(), want[i])
		}
		checkViewInvariant(t, e, i)
	}
	// The engine stays usable after the partial rebuild.
	wantCount, wantSum, _ := e.Column().FullScan(0, ccDomain/8)
	res, err := e.QueryOpt(0, ccDomain/8, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != wantCount || res.Sum != wantSum {
		t.Fatal("post-rebuild query wrong")
	}
}

// TestQueryDecisionNone pins the DecisionNone sentinel at the engine
// level: queries that never build a candidate — non-adaptive engines and
// frozen sets — report DecisionNone, never a phantom "inserted".
func TestQueryDecisionNone(t *testing.T) {
	if (QueryResult{}).Decision != viewset.DecisionNone {
		t.Fatal("QueryResult zero value does not report DecisionNone")
	}
	col := testColumn(t, 64, dist.NewLinear(5, 0, ccDomain, 64))
	base := newEngine(t, col, BaselineConfig())
	res, err := base.QueryOpt(0, ccDomain/4, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidateBuilt || res.Decision != viewset.DecisionNone {
		t.Fatalf("baseline query: %+v, want DecisionNone", res)
	}

	cfg := syncConfig()
	cfg.MaxViews = 1
	froz := newEngine(t, col, cfg)
	rng := xrand.New(2)
	for i := 0; i < 10 && !froz.ViewSet().Frozen(); i++ {
		lo := rng.Uint64n(ccDomain / 2)
		if _, err := froz.QueryOpt(lo, lo+ccDomain/10, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if !froz.ViewSet().Frozen() {
		t.Fatal("premise: set never froze")
	}
	res, err = froz.QueryOpt(1, 2, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidateBuilt || res.Decision != viewset.DecisionNone {
		t.Fatalf("frozen query: %+v, want DecisionNone", res)
	}
}
