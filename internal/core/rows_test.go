package core

import (
	"testing"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/xrand"
)

func TestRowSetBasics(t *testing.T) {
	rs := NewRowSet(100)
	if rs.Len() != 0 || rs.Cap() != 100 {
		t.Fatalf("fresh set: Len=%d Cap=%d", rs.Len(), rs.Cap())
	}
	rs.Add(5)
	rs.Add(50)
	rs.Add(99)
	if !rs.Contains(50) || rs.Contains(51) {
		t.Fatal("Contains wrong")
	}
	if got := rs.Rows(); len(got) != 3 || got[0] != 5 || got[2] != 99 {
		t.Fatalf("Rows = %v", got)
	}
	visited := 0
	rs.ForEach(func(int) bool { visited++; return visited < 2 })
	if visited != 2 {
		t.Fatalf("ForEach early stop visited %d", visited)
	}

	other := NewRowSet(100)
	other.Add(50)
	other.Add(60)
	u := NewRowSet(100)
	u.Union(rs)
	u.Union(other)
	if u.Len() != 4 {
		t.Fatalf("union Len = %d", u.Len())
	}
	rs.Intersect(other)
	if rs.Len() != 1 || !rs.Contains(50) {
		t.Fatalf("intersect = %v", rs.Rows())
	}
}

func TestQueryRowsMatchesGroundTruth(t *testing.T) {
	col := testColumn(t, 96, dist.NewSine(17, 0, 1_000_000, 12))
	e := newEngine(t, col, syncConfig())
	rng := xrand.New(4)
	for i := 0; i < 25; i++ {
		w := rng.Uint64n(200_000) + 1
		lo := rng.Uint64n(1_000_000 - w)
		hi := lo + w

		res, err := e.QueryOpt(lo, hi, QueryOptions{CollectRows: true})
		if err != nil {
			t.Fatal(err)
		}
		rs := res.Rows
		// Ground truth via direct column reads.
		want := map[int]bool{}
		for r := 0; r < col.Rows(); r++ {
			v, _ := col.Value(r)
			if v >= lo && v <= hi {
				want[r] = true
			}
		}
		if rs.Len() != len(want) || res.Count != len(want) {
			t.Fatalf("query %d: rows=%d count=%d, want %d", i, rs.Len(), res.Count, len(want))
		}
		rs.ForEach(func(row int) bool {
			if !want[row] {
				t.Fatalf("query %d: spurious row %d", i, row)
			}
			return true
		})
	}
	// Row queries adapt views too.
	if e.ViewSet().Len() == 0 {
		t.Fatal("row queries created no views")
	}
}

func TestQueryAggregate(t *testing.T) {
	col := testColumn(t, 64, dist.NewUniform(23, 10, 1_000_000))
	e := newEngine(t, col, syncConfig())
	lo, hi := uint64(100_000), uint64(500_000)

	res, err := e.QueryOpt(lo, hi, QueryOptions{ComputeAggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	agg := *res.Agg
	var wantMin, wantMax uint64
	wantCount, wantSum := 0, uint64(0)
	for r := 0; r < col.Rows(); r++ {
		v, _ := col.Value(r)
		if v < lo || v > hi {
			continue
		}
		if wantCount == 0 || v < wantMin {
			wantMin = v
		}
		if wantCount == 0 || v > wantMax {
			wantMax = v
		}
		wantCount++
		wantSum += v
	}
	if agg.Count != wantCount || agg.Sum != wantSum || agg.Min != wantMin || agg.Max != wantMax {
		t.Fatalf("aggregate %+v, want count=%d sum=%d min=%d max=%d",
			agg, wantCount, wantSum, wantMin, wantMax)
	}
	if res.Count != wantCount {
		t.Fatalf("res.Count = %d", res.Count)
	}
	mean := agg.Mean()
	if mean < float64(wantMin) || mean > float64(wantMax) {
		t.Fatalf("mean %v outside [min,max]", mean)
	}
	if (Aggregate{}).Mean() != 0 {
		t.Fatal("empty mean != 0")
	}
}

func TestQueryRowsBaselineMode(t *testing.T) {
	col := testColumn(t, 32, dist.NewUniform(3, 0, 1000))
	e := newEngine(t, col, BaselineConfig())
	res, err := e.QueryOpt(100, 200, QueryOptions{CollectRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UsedFullView || res.Rows.Len() != res.Count {
		t.Fatalf("baseline rows: %+v len=%d", res.QueryResult, res.Rows.Len())
	}
}

// TestMultiViewRoutingUsesCover: in MultiView mode a query covered by
// several partial views in conjunction is answered from that cover,
// "instead of directing the query to a single (potentially larger) view"
// (§2.1), and the stitched answer matches a full scan.
func TestMultiViewRoutingUsesCover(t *testing.T) {
	col := testColumn(t, 256, dist.NewLinear(9, 0, 1_000_000, 256))
	cfg := syncConfig()
	cfg.Mode = MultiView
	e := newEngine(t, col, cfg)
	for _, r := range [][2]uint64{{100_000, 400_000}, {0, 300_000}, {250_000, 900_000}} {
		if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: r[0], Hi: r[1], Pinned: true}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.QueryOpt(150_000, 350_000, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ViewsUsed != 2 {
		t.Fatalf("multi-view routing used %d views, want the 2-view cover", res.ViewsUsed)
	}
	wantCount, wantSum, _ := col.FullScan(150_000, 350_000)
	if res.Count != wantCount || res.Sum != wantSum {
		t.Fatalf("cover answer %d/%d, want %d/%d", res.Count, res.Sum, wantCount, wantSum)
	}
}
