package explicit

import "github.com/asv-db/asv/internal/storage"

// ZoneMap is the §3.1 "Zone Map" variant: the observed minimum and maximum
// of each page are stored in-place at the beginning of the page (the zone
// fields of the common page header). A lookup must therefore inspect the
// metadata of every page — for the paper's 1M-page column that means one
// million address translations, which is why this variant loses everywhere
// in Figure 3 — and scans only the pages whose zone intersects the query.
//
// Zones are maintained by the storage layer on every write, so
// ApplyUpdate is free. storage.Column.SetValue keeps them exact, where a
// classical zone map only widens and then scans pages it could skip.
type ZoneMap struct {
	col    *storage.Column
	lo, hi uint64
}

// NewZoneMap returns a zone-map index over [lo, hi]. The zones themselves
// already live in the pages; no build pass is needed.
func NewZoneMap(col *storage.Column, lo, hi uint64) *ZoneMap {
	return &ZoneMap{col: col, lo: lo, hi: hi}
}

// Name implements Index.
func (z *ZoneMap) Name() string { return "zonemap" }

// Lo implements Index.
func (z *ZoneMap) Lo() uint64 { return z.lo }

// Hi implements Index.
func (z *ZoneMap) Hi() uint64 { return z.hi }

// Pages implements Index: the number of pages whose zone intersects the
// index range (what a lookup over the full range would scan).
func (z *ZoneMap) Pages() int {
	n := 0
	for p := 0; p < z.col.NumPages(); p++ {
		pg, err := z.col.PageBytes(p)
		if err != nil {
			return n
		}
		if zMin, zMax := storage.Zone(pg); zMax >= z.lo && zMin <= z.hi {
			n++
		}
	}
	return n
}

// Lookup implements Index.
func (z *ZoneMap) Lookup(qlo, qhi uint64) (int, uint64, error) {
	if err := checkRange(z.Name(), z.lo, z.hi, qlo, qhi); err != nil {
		return 0, 0, err
	}
	count, sum := 0, uint64(0)
	for p := 0; p < z.col.NumPages(); p++ {
		pg, err := z.col.PageBytes(p)
		if err != nil {
			return count, sum, err
		}
		zMin, zMax := storage.Zone(pg)
		if zMax < qlo || zMin > qhi {
			continue // zone disjoint from query: skip the page
		}
		s := storage.ScanFilter(pg, qlo, qhi)
		count += s.Count
		sum += s.Sum
	}
	return count, sum, nil
}

// ApplyUpdate implements Index. The zone was already kept exact inside
// storage.Column.SetValue; nothing to do.
func (z *ZoneMap) ApplyUpdate(row int, old, new uint64) error { return nil }

// Release implements Index.
func (z *ZoneMap) Release() {}
