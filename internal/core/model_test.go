package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/xrand"
)

// refModel mirrors the column contents in a flat slice and answers range
// queries by brute force — the ground truth for model-based testing.
type refModel struct {
	vals []uint64
}

func newRefModel(col *storage.Column) *refModel {
	m := &refModel{vals: make([]uint64, col.Rows())}
	for r := range m.vals {
		v, err := col.Value(r)
		if err != nil {
			panic(err)
		}
		m.vals[r] = v
	}
	return m
}

func (m *refModel) query(lo, hi uint64) (count int, sum uint64) {
	agg, _ := m.materialize(lo, hi)
	return agg.Count, agg.Sum
}

func (m *refModel) update(row int, v uint64) { m.vals[row] = v }

// materialize answers [lo, hi] by brute force with everything an
// Aggregate and a Rows query return.
func (m *refModel) materialize(lo, hi uint64) (agg Aggregate, rows []int) {
	rows = []int{}
	for r, v := range m.vals {
		if v < lo || v > hi {
			continue
		}
		if agg.Count == 0 || v < agg.Min {
			agg.Min = v
		}
		if agg.Count == 0 || v > agg.Max {
			agg.Max = v
		}
		agg.Count++
		agg.Sum += v
		rows = append(rows, r)
	}
	return agg, rows
}

// materializations cycles through what a query can ask to have
// materialized, so that a sequence of queries i = 0, 1, 2, … covers the
// plain, the aggregate-only, the rows-only and the combined kernel choice.
func materializations(i int) QueryOptions {
	return QueryOptions{ComputeAggregate: i%4 == 1 || i%4 == 3, CollectRows: i%4 >= 2}
}

// check holds an answer to [lo, hi] against the model: count and sum
// always, Agg and Rows exactly when opt asked for them.
func (m *refModel) check(t testing.TB, what string, lo, hi uint64, opt QueryOptions, ans Answer) {
	t.Helper()
	agg, rows := m.materialize(lo, hi)
	if ans.Count != agg.Count || ans.Sum != agg.Sum {
		t.Fatalf("%s [%d,%d]: count/sum %d/%d, brute force %d/%d", what, lo, hi, ans.Count, ans.Sum, agg.Count, agg.Sum)
	}
	if (ans.Agg != nil) != opt.ComputeAggregate || (ans.Rows != nil) != opt.CollectRows {
		t.Fatalf("%s [%d,%d]: asked %+v, got Agg %v Rows %v", what, lo, hi, opt, ans.Agg != nil, ans.Rows != nil)
	}
	if ans.Agg != nil && *ans.Agg != agg {
		t.Fatalf("%s [%d,%d]: aggregate %+v, brute force %+v", what, lo, hi, *ans.Agg, agg)
	}
	if ans.Rows != nil {
		if got := ans.Rows.Rows(); !slices.Equal(got, rows) {
			t.Fatalf("%s [%d,%d]: %d row IDs, brute force %d, or other rows", what, lo, hi, len(got), len(rows))
		}
	}
}

// TestModelInterleavedQueriesAndUpdates drives the engine with a random
// interleaving of range queries, point updates, batch flushes, and view
// rebuilds, and verifies every single query against the reference model.
// This is the system-level invariant everything else exists to uphold:
// the adaptive view layer is never allowed to change an answer.
func TestModelInterleavedQueriesAndUpdates(t *testing.T) {
	const (
		pages  = 80
		domain = 1_000_000
		steps  = 400
	)
	distributions := map[string]dist.Generator{
		"uniform": dist.NewUniform(1, 0, domain),
		"sine":    dist.NewSine(2, 0, domain, 10),
		"sparse":  dist.NewSparse(3, 0, domain, 0.9),
	}
	for _, mode := range []Mode{SingleView, MultiView} {
		for dname, g := range distributions {
			t.Run(fmt.Sprintf("%s/%s", mode, dname), func(t *testing.T) {
				col := testColumn(t, pages, g)
				cfg := syncConfig()
				cfg.Mode = mode
				cfg.MaxViews = 20
				e := newEngine(t, col, cfg)
				model := newRefModel(col)

				rng := xrand.New(99)
				for step := 0; step < steps; step++ {
					switch rng.Intn(10) {
					case 0, 1, 2: // point update (buffered)
						row := rng.Intn(col.Rows())
						val := rng.Uint64n(domain + 1)
						if err := e.Update(row, val); err != nil {
							t.Fatal(err)
						}
						model.update(row, val)
					case 3: // flush the pending batch
						if _, err := e.FlushUpdates(); err != nil {
							t.Fatal(err)
						}
						checkZonesExact(t, col)
					case 4: // occasional rebuild from scratch
						if step%7 == 0 {
							if err := e.RebuildViews(); err != nil {
								t.Fatal(err)
							}
						}
					default: // range query — the engine auto-flushes any
						// pending updates, so no explicit flush is needed.
						w := rng.Uint64n(domain/4) + 1
						lo := rng.Uint64n(domain - w)
						hi := lo + w
						got, err := e.QueryOpt(lo, hi, QueryOptions{})
						if err != nil {
							t.Fatal(err)
						}
						wantCount, wantSum := model.query(lo, hi)
						if got.Count != wantCount || got.Sum != wantSum {
							t.Fatalf("step %d: query [%d,%d] = (%d,%d), want (%d,%d); views=%d",
								step, lo, hi, got.Count, got.Sum, wantCount, wantSum, e.ViewSet().Len())
						}
					}
				}
			})
		}
	}
}

// TestModelConcurrentMapperEquivalence repeats a short model run with the
// background mapping thread enabled — results must be identical to the
// synchronous path.
func TestModelConcurrentMapperEquivalence(t *testing.T) {
	const domain = 1_000_000
	col := testColumn(t, 64, dist.NewSine(5, 0, domain, 8))
	model := newRefModel(col)

	cfg := DefaultConfig() // concurrent mapper on
	cfg.MaxViews = 15
	e := newEngine(t, col, cfg)
	_ = view.AllOptimizations // documents that cfg.Create uses both optimizations

	rng := xrand.New(7)
	for step := 0; step < 150; step++ {
		if rng.Intn(4) == 0 {
			row := rng.Intn(col.Rows())
			val := rng.Uint64n(domain + 1)
			if err := e.Update(row, val); err != nil {
				t.Fatal(err)
			}
			model.update(row, val)
			continue // next query auto-flushes
		}
		w := rng.Uint64n(domain/5) + 1
		lo := rng.Uint64n(domain - w)
		got, err := e.QueryOpt(lo, lo+w, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantCount, wantSum := model.query(lo, lo+w)
		if got.Count != wantCount || got.Sum != wantSum {
			t.Fatalf("step %d: (%d,%d) want (%d,%d)", step, got.Count, got.Sum, wantCount, wantSum)
		}
	}
}
