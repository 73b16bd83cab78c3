package explicit

import (
	"github.com/asv-db/asv/internal/storage"
)

// PageVector is the §3.1 "Vector of Page-IDs" variant: a vector holding
// only the IDs of qualifying pages; a lookup walks the vector and jumps to
// each page. Like the paper's implementation, which prefetches
// pages[i+1] with __builtin_prefetch while processing pages[i], the
// lookup resolves and touches the next page one step ahead.
//
// Updates append newly qualifying pages at the tail and swap-remove pages
// that stop qualifying — this is exactly how "the updates might scatter
// the order in which pages are indexed" (§3.1): after an update stream the
// vector no longer enumerates pages in physical order.
type PageVector struct {
	col    *storage.Column
	lo, hi uint64
	ids    []uint32
	pos    map[uint32]int // pageID -> index in ids (maintenance only)
}

// NewPageVector builds the vector by scanning the column once.
func NewPageVector(col *storage.Column, lo, hi uint64) (*PageVector, error) {
	v := &PageVector{col: col, lo: lo, hi: hi, pos: make(map[uint32]int)}
	for p := 0; p < col.NumPages(); p++ {
		ok, err := qualifies(col, p, lo, hi)
		if err != nil {
			return nil, err
		}
		if ok {
			v.pos[uint32(p)] = len(v.ids)
			v.ids = append(v.ids, uint32(p))
		}
	}
	return v, nil
}

// Name implements Index.
func (v *PageVector) Name() string { return "pagevector" }

// Lo implements Index.
func (v *PageVector) Lo() uint64 { return v.lo }

// Hi implements Index.
func (v *PageVector) Hi() uint64 { return v.hi }

// Pages implements Index.
func (v *PageVector) Pages() int { return len(v.ids) }

// Lookup implements Index.
func (v *PageVector) Lookup(qlo, qhi uint64) (int, uint64, error) {
	if err := checkRange(v.Name(), v.lo, v.hi, qlo, qhi); err != nil {
		return 0, 0, err
	}
	count, sum := 0, uint64(0)
	var cur []byte
	if len(v.ids) > 0 {
		var err error
		cur, err = v.col.PageBytes(int(v.ids[0]))
		if err != nil {
			return 0, 0, err
		}
	}
	for i := range v.ids {
		// Software prefetch: resolve the next page and touch its first
		// cache line before scanning the current one.
		var next []byte
		if i+1 < len(v.ids) {
			var err error
			next, err = v.col.PageBytes(int(v.ids[i+1]))
			if err != nil {
				return count, sum, err
			}
			_ = next[0]
		}
		s := storage.ScanFilter(cur, qlo, qhi)
		count += s.Count
		sum += s.Sum
		cur = next
	}
	return count, sum, nil
}

// ApplyUpdate implements Index.
func (v *PageVector) ApplyUpdate(row int, old, new uint64) error {
	page := uint32(row / storage.ValuesPerPage)
	_, present := v.pos[page]
	if new >= v.lo && new <= v.hi {
		if !present {
			v.pos[page] = len(v.ids)
			v.ids = append(v.ids, page)
		}
		return nil
	}
	if present && old >= v.lo && old <= v.hi {
		ok, err := qualifies(v.col, int(page), v.lo, v.hi)
		if err != nil {
			return err
		}
		if !ok {
			i := v.pos[page]
			last := v.ids[len(v.ids)-1]
			v.ids[i] = last
			v.pos[last] = i
			v.ids = v.ids[:len(v.ids)-1]
			delete(v.pos, page)
		}
	}
	return nil
}

// Release implements Index.
func (v *PageVector) Release() {}
