// Package explicit implements the explicit-index baselines that §3.1
// compares against virtual partial views: "Zone Map", "Bitmap", "Vector of
// Page-IDs", and the artificial optimum "Physical Scan". All variants
// (including a wrapper around the virtual view) satisfy a common Index
// interface so the Figure 3 experiment can drive them uniformly: build an
// index over the pages qualifying for a range [lo, hi], apply a stream of
// point updates, then answer sub-range lookups.
package explicit

import (
	"fmt"

	"github.com/asv-db/asv/internal/storage"
)

// Index is an explicitly or virtually indexed partial view over the pages
// of a column that contain at least one value in the index range [Lo, Hi].
//
// Lookup answers a query [qlo, qhi] that must be contained in the index
// range (Figure 3 queries [0, k/2] against indexes over [0, k]).
// ApplyUpdate maintains the index after the column value at row changed
// from old to new — the experiment applies 10,000 such updates "to
// simulate a change of the partial view".
type Index interface {
	// Name identifies the variant in reports.
	Name() string
	// Lo returns the lower bound of the indexed value range.
	Lo() uint64
	// Hi returns the upper bound of the indexed value range.
	Hi() uint64
	// Pages returns how many physical pages the index currently covers.
	Pages() int
	// Lookup answers [qlo, qhi] ⊆ [Lo, Hi].
	Lookup(qlo, qhi uint64) (count int, sum uint64, err error)
	// ApplyUpdate maintains the index after an already-applied column
	// update (row overwritten: old -> new).
	ApplyUpdate(row int, old, new uint64) error
	// Release frees any resources the index holds.
	Release()
}

// qualifies reports whether a page currently holds a value in [lo, hi].
func qualifies(col *storage.Column, pageID int, lo, hi uint64) (bool, error) {
	pg, err := col.PageBytes(pageID)
	if err != nil {
		return false, err
	}
	s := storage.ScanFilter(pg, lo, hi)
	return s.Count > 0, nil
}

// checkRange validates the Figure 3 contract qlo..qhi ⊆ lo..hi.
func checkRange(name string, lo, hi, qlo, qhi uint64) error {
	if qlo > qhi {
		return fmt.Errorf("explicit/%s: inverted query [%d,%d]", name, qlo, qhi)
	}
	if qlo < lo || qhi > hi {
		return fmt.Errorf("explicit/%s: query [%d,%d] outside index range [%d,%d]",
			name, qlo, qhi, lo, hi)
	}
	return nil
}
