package view

import (
	"github.com/asv-db/asv/internal/storage"
)

// Spec is one view request of Build: the declared range the view
// keeps, the §2.3 creation options, and the tier-demotion exemption.
type Spec struct {
	Lo, Hi uint64
	Opts   CreateOptions
	Pinned bool
}

// Build creates one partial view per spec in a single qualifying scan of
// the column's full view (§2, §2.3) — the one creation pass of explicit
// creation, view rebuilds and the micro-benchmarks (§3.1, §3.3). The
// adaptive engine instead drives a Builder directly, fusing creation into
// query answering (Listing 1).
//
// A page whose header zone misses a spec's range cannot qualify for it
// and is skipped; every other page goes through storage.ScanFilter. Each
// view keeps its declared [Lo, Hi]: no §2.2 extension (see
// RangeExtender). On any error every builder is aborted and every
// finished view released, so a failed Build leaves the address space as
// it found it.
func Build(col *storage.Column, specs []Spec, mapper *Mapper) ([]*View, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	builders := make([]*Builder, 0, len(specs))
	views := make([]*View, 0, len(specs))
	fail := func(err error) ([]*View, error) {
		for _, b := range builders {
			b.Abort()
		}
		for _, v := range views {
			v.Release()
		}
		return nil, err
	}
	for _, sp := range specs {
		b, err := NewBuilder(col, sp.Opts, mapper)
		if err != nil {
			return fail(err)
		}
		builders = append(builders, b)
	}
	for p := 0; p < col.NumPages(); p++ {
		pg, err := col.PageBytes(p)
		if err != nil {
			return fail(err)
		}
		zmin, zmax := storage.Zone(pg)
		for i, sp := range specs {
			if zmax < sp.Lo || zmin > sp.Hi {
				continue
			}
			if storage.ScanFilter(pg, sp.Lo, sp.Hi).Count > 0 {
				builders[i].AddPage(p)
			}
		}
	}
	for i, sp := range specs {
		v, err := builders[i].Finish(sp.Lo, sp.Hi)
		if err != nil {
			return fail(err)
		}
		v.SetPinned(sp.Pinned)
		views = append(views, v)
	}
	return views, nil
}

// RangeExtender accumulates the candidate-range extension of §2.2 across
// the non-qualifying pages of a scan: it tracks the largest observed value
// l' < lo and the smallest u' > hi on excluded pages; all values strictly
// between l' and u' must then live on qualifying pages, so the new view
// may claim [l'+1, u'-1].
type RangeExtender struct {
	lo, hi             uint64
	maxBelow, minAbove uint64
	hasBelow, hasAbove bool
}

// NewRangeExtender starts an extension for a query range [lo, hi].
func NewRangeExtender(lo, hi uint64) *RangeExtender {
	return &RangeExtender{lo: lo, hi: hi}
}

// ObserveExcluded folds in the scan result of a non-qualifying page.
func (e *RangeExtender) ObserveExcluded(s storage.PageScan) {
	if s.HasBelow && (!e.hasBelow || s.MaxBelow > e.maxBelow) {
		e.maxBelow = s.MaxBelow
		e.hasBelow = true
	}
	if s.HasAbove && (!e.hasAbove || s.MinAbove < e.minAbove) {
		e.minAbove = s.MinAbove
		e.hasAbove = true
	}
}

// Range returns the extended range [l'+1, u'-1]. With no excluded pages
// observed on a side, that side extends to the domain boundary; callers
// that scanned only part of the column must clamp the result to the range
// their sources cover (the engine clamps to the source views' interval).
func (e *RangeExtender) Range() (uint64, uint64) {
	lo, hi := uint64(0), ^uint64(0)
	if e.hasBelow {
		lo = e.maxBelow + 1 // maxBelow < e.lo <= MaxUint64, no overflow
	}
	if e.hasAbove {
		hi = e.minAbove - 1 // minAbove > e.hi >= 0, no underflow
	}
	return lo, hi
}
