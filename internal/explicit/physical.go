package explicit

import (
	"github.com/asv-db/asv/internal/storage"
)

// PhysicalScan is the §3.1 "Physical Scan" variant: "a consecutive memory
// area, that has been allocated traditionally with new and already
// contains all qualifying pages. This resembles an artificial optimal
// baseline." The qualifying pages are copied into one contiguous Go-heap
// buffer; a lookup is a pure sequential scan with no indirection at all.
//
// To keep the copies truthful under the experiment's update stream, point
// updates are propagated into the buffer (and pages are appended or
// swap-removed as they start or stop qualifying).
type PhysicalScan struct {
	col    *storage.Column
	lo, hi uint64
	buf    []byte         // len = pages * PageSize, contiguous
	pos    map[uint32]int // pageID -> page index within buf
	ids    []uint32       // page index -> pageID (for swap-remove)
}

// NewPhysicalScan copies all qualifying pages into a contiguous buffer.
func NewPhysicalScan(col *storage.Column, lo, hi uint64) (*PhysicalScan, error) {
	ps := &PhysicalScan{col: col, lo: lo, hi: hi, pos: make(map[uint32]int)}
	for p := 0; p < col.NumPages(); p++ {
		pg, err := col.PageBytes(p)
		if err != nil {
			return nil, err
		}
		if s := storage.ScanFilter(pg, lo, hi); s.Count > 0 {
			ps.appendCopy(uint32(p), pg)
		}
	}
	return ps, nil
}

func (ps *PhysicalScan) appendCopy(pageID uint32, pg []byte) {
	ps.pos[pageID] = len(ps.ids)
	ps.ids = append(ps.ids, pageID)
	ps.buf = append(ps.buf, pg...)
}

// Name implements Index.
func (ps *PhysicalScan) Name() string { return "physical" }

// Lo implements Index.
func (ps *PhysicalScan) Lo() uint64 { return ps.lo }

// Hi implements Index.
func (ps *PhysicalScan) Hi() uint64 { return ps.hi }

// Pages implements Index.
func (ps *PhysicalScan) Pages() int { return len(ps.ids) }

// Lookup implements Index: one sequential pass over the contiguous copy.
func (ps *PhysicalScan) Lookup(qlo, qhi uint64) (int, uint64, error) {
	if err := checkRange(ps.Name(), ps.lo, ps.hi, qlo, qhi); err != nil {
		return 0, 0, err
	}
	count, sum := 0, uint64(0)
	for off := 0; off < len(ps.buf); off += storage.PageSize {
		s := storage.ScanFilter(ps.buf[off:off+storage.PageSize], qlo, qhi)
		count += s.Count
		sum += s.Sum
	}
	return count, sum, nil
}

// ApplyUpdate implements Index: the redundant copy must mirror the column.
func (ps *PhysicalScan) ApplyUpdate(row int, old, new uint64) error {
	page := uint32(row / storage.ValuesPerPage)
	slot := row % storage.ValuesPerPage
	idx, present := ps.pos[page]

	if present {
		// Mirror the write into the copy.
		cp := ps.buf[idx*storage.PageSize : (idx+1)*storage.PageSize]
		storage.SetValueAt(cp, slot, new)
		if new >= ps.lo && new <= ps.hi {
			return nil
		}
		if old < ps.lo || old > ps.hi {
			return nil
		}
		// A covered value vanished: does the copy still qualify?
		if s := storage.ScanFilter(cp, ps.lo, ps.hi); s.Count > 0 {
			return nil
		}
		ps.removeAt(idx)
		return nil
	}

	if new >= ps.lo && new <= ps.hi {
		pg, err := ps.col.PageBytes(int(page))
		if err != nil {
			return err
		}
		ps.appendCopy(page, pg)
	}
	return nil
}

func (ps *PhysicalScan) removeAt(idx int) {
	lastIdx := len(ps.ids) - 1
	lastID := ps.ids[lastIdx]
	removedID := ps.ids[idx]
	if idx != lastIdx {
		copy(ps.buf[idx*storage.PageSize:(idx+1)*storage.PageSize],
			ps.buf[lastIdx*storage.PageSize:(lastIdx+1)*storage.PageSize])
		ps.ids[idx] = lastID
		ps.pos[lastID] = idx
	}
	ps.ids = ps.ids[:lastIdx]
	ps.buf = ps.buf[:lastIdx*storage.PageSize]
	delete(ps.pos, removedID)
}

// Release implements Index.
func (ps *PhysicalScan) Release() {
	ps.buf, ps.ids, ps.pos = nil, nil, nil
}
