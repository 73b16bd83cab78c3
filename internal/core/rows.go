package core

import (
	"github.com/asv-db/asv/internal/bitvec"
)

// RowSet is the result of a row-materializing query: one bit per row of
// the column, set for qualifying rows. Row identity is recovered from the
// pageID embedded in each physical page (§2), which is what makes scans of
// arbitrarily-ordered partial views position-independent.
type RowSet struct {
	bits *bitvec.Vector
}

// NewRowSet returns an empty row set for a column with rows slots.
func NewRowSet(rows int) *RowSet { return &RowSet{bits: bitvec.New(rows)} }

// Contains reports whether row is in the set.
func (r *RowSet) Contains(row int) bool { return r.bits.Get(row) }

// Add inserts a row.
func (r *RowSet) Add(row int) { r.bits.Set(row) }

// Len returns the number of rows in the set.
func (r *RowSet) Len() int { return r.bits.Count() }

// Cap returns the number of row slots the set spans.
func (r *RowSet) Cap() int { return r.bits.Len() }

// Intersect keeps only rows present in both sets. The sets must span the
// same number of rows (i.e. come from equally-sized columns of one table).
func (r *RowSet) Intersect(o *RowSet) { r.bits.And(o.bits) }

// Union adds all rows of o.
func (r *RowSet) Union(o *RowSet) { r.bits.Or(o.bits) }

// Rows returns the qualifying row IDs in ascending order.
func (r *RowSet) Rows() []int {
	out := make([]int, 0, r.Len())
	for i := r.bits.NextSet(0); i != -1; i = r.bits.NextSet(i + 1) {
		out = append(out, i)
	}
	return out
}

// ForEach calls fn for every row in ascending order; fn returning false
// stops the iteration.
func (r *RowSet) ForEach(fn func(row int) bool) {
	for i := r.bits.NextSet(0); i != -1; i = r.bits.NextSet(i + 1) {
		if !fn(i) {
			return
		}
	}
}

// Aggregate summarizes the qualifying values of a range query.
type Aggregate struct {
	Count int
	Sum   uint64 // wrapping
	Min   uint64 // valid if Count > 0
	Max   uint64 // valid if Count > 0
}

// Mean returns the average qualifying value (0 when empty). Sums that
// overflow uint64 make the mean meaningless; callers working near the top
// of the domain should aggregate in chunks.
func (a Aggregate) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Sum) / float64(a.Count)
}
