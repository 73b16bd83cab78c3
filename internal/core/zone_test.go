package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/xrand"
)

// checkZonesExact asserts the zone invariant the adaptive read path
// relies on: every page's header zone is exactly its minimum and maximum.
func checkZonesExact(t testing.TB, col *storage.Column) {
	t.Helper()
	for p := 0; p < col.NumPages(); p++ {
		pg, err := col.PageBytes(p)
		if err != nil {
			t.Fatal(err)
		}
		zmin, zmax := storage.Zone(pg)
		if vmin, vmax := storage.PageMinMax(pg); zmin != vmin || zmax != vmax {
			t.Fatalf("page %d: zone [%d, %d], values [%d, %d]", p, zmin, zmax, vmin, vmax)
		}
	}
}

// TestQueryOverWidenedZones widens the zones of a few pages before the
// first query, as a column loaded from an older file may carry them:
// every adaptive answer must still equal the column's FullScan, and every
// view must index exactly the pages that qualify for its range. A wider
// zone only narrows the candidate ranges built over it.
func TestQueryOverWidenedZones(t *testing.T) {
	const pages = 96
	queries := [][2]uint64{
		{ccDomain / 4, ccDomain / 3}, {0, ccDomain / 10}, {ccDomain / 2, ccDomain/2 + 500},
		{ccDomain / 5, ccDomain / 2}, {9 * ccDomain / 10, ccDomain}, {ccDomain / 4, ccDomain / 3},
	}
	for _, mode := range []Mode{SingleView, MultiView} {
		t.Run(mode.String(), func(t *testing.T) {
			col := testColumn(t, pages, dist.NewSine(4, 0, ccDomain, 16))
			for i, p := range []int{3, 17, 40, 41, 90} {
				pg, err := col.PageBytes(p)
				if err != nil {
					t.Fatal(err)
				}
				zmin, zmax := storage.Zone(pg)
				switch i % 3 {
				case 0:
					storage.SetZone(pg, 0, ccDomain)
				case 1:
					storage.SetZone(pg, zmin/2, zmax)
				default:
					storage.SetZone(pg, zmin, zmax+ccDomain/3)
				}
			}
			cfg := syncConfig()
			cfg.Mode = mode
			e := newEngine(t, col, cfg)
			model := newRefModel(col)
			for i, q := range queries {
				opt := materializations(i)
				ans, err := e.QueryOpt(q[0], q[1], opt)
				if err != nil {
					t.Fatal(err)
				}
				model.check(t, fmt.Sprintf("query %d", i), q[0], q[1], opt, ans)
				wantCount, wantSum, err := col.FullScan(q[0], q[1])
				if err != nil {
					t.Fatal(err)
				}
				if ans.Count != wantCount || ans.Sum != wantSum {
					t.Fatalf("query %d [%d,%d]: (%d,%d), full scan (%d,%d)", i, q[0], q[1], ans.Count, ans.Sum, wantCount, wantSum)
				}
			}
			if len(e.Views()) == 0 {
				t.Fatal("premise: the queries created no views")
			}
			for i := range e.Views() {
				checkViewInvariant(t, e, i)
			}
		})
	}
}

// TestZoneExactUnderEpochWriters runs epoch readers beside an
// UpdateBatch writer that flushes after every batch and overwrites page
// extremes, so zones shrink as well as grow. Each reader pins a snapshot,
// checks that every pinned page's zone is exact, and holds its answers —
// routed to the pinned views or to the full view, each page filtered zone
// first — against a FullScan of the same pinned capture. At the end every
// live zone is exact and the engine agrees with the column.
func TestZoneExactUnderEpochWriters(t *testing.T) {
	const (
		pages   = 64
		readers = 3
		batches = 30
	)
	col := testColumn(t, pages, dist.NewSine(6, 0, ccDomain, 8))
	e := newEngine(t, col, syncConfig())
	for _, r := range alignTestRanges {
		if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: r[0], Hi: r[1], Pinned: true}}); err != nil {
			t.Fatal(err)
		}
	}
	vals := make([]uint64, col.Rows())
	for i := range vals {
		v, err := col.Value(i)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = v
	}

	var (
		wg     sync.WaitGroup
		routed atomic.Int64 // answers read from pinned partial views only
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := xrand.New(uint64(40 + r))
			for i := 0; i < 20 && !t.Failed(); i++ {
				s, err := e.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				full := s.pinned().snap.Full()
				for p := 0; p < full.NumPages(); p++ {
					pg := full.PageBytes(p)
					zmin, zmax := storage.Zone(pg)
					if vmin, vmax := storage.PageMinMax(pg); zmin != vmin || zmax != vmax {
						t.Errorf("pinned page %d: zone [%d, %d], values [%d, %d]", p, zmin, zmax, vmin, vmax)
					}
				}
				for j := 0; j < 4; j++ {
					lo := rng.Uint64n(ccDomain)
					hi := lo + rng.Uint64n(ccDomain/8)
					if j%2 == 0 { // inside a pinned view's range
						v := alignTestRanges[rng.Intn(len(alignTestRanges))]
						lo = v[0] + rng.Uint64n(v[1]-v[0])
						hi = lo + rng.Uint64n(v[1]-lo+1)
					}
					ans, err := s.QueryOpt(lo, hi, QueryOptions{ComputeAggregate: j == 1})
					if err != nil {
						t.Error(err)
						break
					}
					var want storage.PageScan
					for p := 0; p < full.NumPages(); p++ {
						want.Merge(storage.ScanFilter(full.PageBytes(p), lo, hi))
					}
					if !ans.UsedFullView {
						routed.Add(1)
					}
					if ans.Count != want.Count || ans.Sum != want.Sum {
						t.Errorf("reader %d [%d,%d]: (%d,%d), pinned full scan (%d,%d)", r, lo, hi, ans.Count, ans.Sum, want.Count, want.Sum)
					}
				}
				s.Close()
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := xrand.New(9)
		for b := 0; b < batches; b++ {
			ws := make([]RowWrite, 40)
			for i := range ws {
				ws[i] = RowWrite{Row: rng.Intn(col.Rows()), Value: rng.Uint64n(ccDomain)}
				if i%2 == 0 {
					// Overwrite the page's minimum or maximum with a value
					// from inside its range, so zones must shrink as well
					// as grow.
					ws[i] = extremeOverwrite(vals, ws[i].Row/storage.ValuesPerPage, i%4 == 0)
				}
				vals[ws[i].Row] = ws[i].Value
			}
			if err := e.UpdateBatch(ws); err != nil {
				t.Error(err)
				return
			}
			if _, err := e.FlushUpdates(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if routed.Load() == 0 {
		t.Fatal("premise: no answer came from a pinned partial view")
	}
	checkZonesExact(t, col)
	for _, q := range [][2]uint64{{0, ccDomain}, {ccDomain / 3, ccDomain / 2}, {0, 1000}} {
		wantCount, wantSum, err := col.FullScan(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.QueryOpt(q[0], q[1], QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != wantCount || res.Sum != wantSum {
			t.Fatalf("[%d,%d]: engine (%d,%d) != column (%d,%d)", q[0], q[1], res.Count, res.Sum, wantCount, wantSum)
		}
	}
}

// extremeOverwrite returns a write that replaces page p's smallest (or,
// with lowest false, largest) value in vals by the middle of the page's
// range.
func extremeOverwrite(vals []uint64, p int, lowest bool) RowWrite {
	page := vals[p*storage.ValuesPerPage : (p+1)*storage.ValuesPerPage]
	lo, hi := 0, 0
	for i, v := range page {
		if v < page[lo] {
			lo = i
		}
		if v > page[hi] {
			hi = i
		}
	}
	at := hi
	if lowest {
		at = lo
	}
	return RowWrite{Row: p*storage.ValuesPerPage + at, Value: page[lo] + (page[hi]-page[lo])/2}
}
