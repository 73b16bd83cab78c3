// Package storage materializes physical columns on simulated main-memory
// files and provides the low-level page layout and scan primitives that
// both the explicit-index baselines and the virtual storage views build on.
//
// Layout (§2): a column is a sequence of 4 KiB pages on a main-memory
// file. "As partial views might map to arbitrary subsets of the physical
// column, we have to embed an 8B pageID at the beginning of each physical
// page" — so every page starts with an 8-byte little-endian pageID that
// lets a partial-view scan identify which tuples the page's values belong
// to. We additionally reserve two 8-byte zone fields (the page's minimum
// and maximum value) in the header: the "Zone Map" baseline of §3.1 stores
// its metadata "in-place at the beginning of the page, before the actual
// values", and carrying the fields in the common layout lets every §3.1
// variant operate on the same column. The adaptive layer reads them too:
// view creation skips a page whose zone misses the range, and an adaptive
// query answers a page lying wholly on one side of its range from the
// zone alone (ZoneScan). Both are departures from the paper, and so is
// the header's cost of 509 instead of 511 values per page (README.md,
// "Departures from the paper"). SetValue keeps every zone exact.
package storage

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/vmsim"
)

const (
	// PageSize re-exports the simulator's page size.
	PageSize = vmsim.PageSize
	// HeaderSize is the embedded page header: 8-byte pageID (§2) plus the
	// 8-byte zone minimum and maximum used by the zone-map baseline (§3.1).
	HeaderSize = 24
	// ValuesPerPage is the number of 8-byte values per page after the
	// header: (4096-24)/8 = 509.
	ValuesPerPage = (PageSize - HeaderSize) / 8
)

// PageID reads the embedded pageID header.
func PageID(page []byte) uint64 {
	return binary.LittleEndian.Uint64(page[:8])
}

// SetPageID writes the embedded pageID header.
func SetPageID(page []byte, id uint64) {
	binary.LittleEndian.PutUint64(page[:8], id)
}

// Zone reads the in-page zone fields: the smallest and largest value the
// page holds. Fill and SetValue keep them exact, unlike classical zone
// maps, which only widen. A zone read from a file may be wider than its
// page's values (ReadColumn refuses a narrower one), which only narrows
// candidate ranges.
func Zone(page []byte) (min, max uint64) {
	return binary.LittleEndian.Uint64(page[8:16]), binary.LittleEndian.Uint64(page[16:24])
}

// SetZone writes the in-page zone fields.
func SetZone(page []byte, min, max uint64) {
	binary.LittleEndian.PutUint64(page[8:16], min)
	binary.LittleEndian.PutUint64(page[16:24], max)
}

// updateZone keeps the zone exact across the overwrite of old by v: it
// recomputes the zone by a full pass when old was an extreme that v does
// not replace, and enlarges it to v otherwise.
func updateZone(page []byte, old, v uint64) {
	min, max := Zone(page)
	if (old == min && v > min) || (old == max && v < max) {
		min, max = PageMinMax(page)
		SetZone(page, min, max)
		return
	}
	if v < min {
		binary.LittleEndian.PutUint64(page[8:16], v)
	}
	if v > max {
		binary.LittleEndian.PutUint64(page[16:24], v)
	}
}

// ValueAt reads value slot i of a page (0 <= i < ValuesPerPage).
func ValueAt(page []byte, i int) uint64 {
	off := HeaderSize + i*8
	return binary.LittleEndian.Uint64(page[off : off+8])
}

// SetValueAt writes value slot i of a page.
func SetValueAt(page []byte, i int, v uint64) {
	off := HeaderSize + i*8
	binary.LittleEndian.PutUint64(page[off:off+8], v)
}

// PageMinMax returns the smallest and largest value on the page by a
// full pass: the oracle the page-header zones are checked against.
func PageMinMax(page []byte) (min, max uint64) {
	min = ^uint64(0)
	for i := 0; i < ValuesPerPage; i++ {
		v := binary.LittleEndian.Uint64(page[HeaderSize+i*8 : HeaderSize+i*8+8])
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Column is a physical column: numPages pages on a main-memory file, plus
// the always-present full virtual view v[-inf,inf] mapping the whole file
// in order (§2 component (a) and the first element of component (b)).
type Column struct {
	kernel   *vmsim.Kernel
	as       *vmsim.AddressSpace
	file     *vmsim.File
	name     string
	numPages int
	fullAddr vmsim.Addr

	// tlb caches the resolved page slice per full-view page. As with
	// view.View's soft-TLB, this models the hardware MMU/TLB: on the
	// paper's system a full-view access costs no software translation,
	// and charging one per page here would distort every scan-path
	// comparison (and serialize concurrent mapping against scanning on
	// the simulated page-table lock). mapColumn resolves every entry
	// before the column exists for anyone else, so PageBytes never
	// writes the cache — which is what lets concurrent queries share a
	// column without any locking.
	//
	// The array is held behind an atomic pointer because the snapshot
	// write path (see snapshot.go) hands the current array to published
	// engine states and installs a private clone before the next
	// copy-on-write shadow: a handed-out array is immutable from that
	// moment on, which is what makes epoch readers race-free against
	// writers. Without EnableSnapshots the pointer never changes after
	// construction.
	tlb atomic.Pointer[[][]byte]

	// Snapshot (copy-on-write) state; see snapshot.go. All fields are
	// inert until EnableSnapshots.
	snapMu      sync.Mutex // guards cloning, shadowing, and the retired list
	snapOn      bool
	snapEpoch   atomic.Uint64
	pageEpoch   []uint64 // per page: epoch of its last shadow copy
	cloneNeeded bool     // current tlb array was handed to a state; clone before shadowing
	retired     []vmsim.FrameID

	// tier is the column's second-tier frame map (EnableTiering); nil
	// keeps the single-tier behaviour. Tier state is keyed by file page —
	// the pageID embedded in the page bytes — so copy-on-write frame
	// replacement never loses a page's tier.
	tier atomic.Pointer[vmsim.FileTier]
}

// NewColumn creates the file, maps the full view, and stamps every page's
// pageID header.
func NewColumn(k *vmsim.Kernel, as *vmsim.AddressSpace, name string, numPages int) (*Column, error) {
	if numPages <= 0 {
		return nil, fmt.Errorf("storage: column needs at least one page, got %d", numPages)
	}
	f, err := k.CreateFile(name, numPages)
	if err != nil {
		return nil, err
	}
	c, err := mapColumn(k, as, f, name, numPages)
	if err != nil {
		_ = k.RemoveFile(name) //asv:ignore-err unwinding a failed mmap; the mmap error is returned
		return nil, err
	}
	for p, pg := range *c.tlb.Load() {
		SetPageID(pg, uint64(p))
	}
	return c, nil
}

// mapColumn maps the first numPages pages of file f as a column's full
// view and resolves every entry of its soft-TLB. On failure nothing of f
// is left mapped.
func mapColumn(k *vmsim.Kernel, as *vmsim.AddressSpace, f *vmsim.File, name string, numPages int) (*Column, error) {
	addr, err := as.MmapFile(f, 0, numPages)
	if err != nil {
		return nil, err
	}
	c := &Column{
		kernel: k, as: as, file: f, name: name,
		numPages: numPages, fullAddr: addr,
	}
	arr := make([][]byte, numPages)
	c.tlb.Store(&arr)
	for p := 0; p < numPages; p++ {
		if _, err := c.PageBytes(p); err != nil {
			_ = as.MunmapPages(addr, numPages) //asv:ignore-err unwinding a failed translation; the translation error is returned
			return nil, err
		}
	}
	return c, nil
}

// fillPage materializes one page from the generator and stamps exact zone
// fields. buf is a caller-owned scratch slice of ValuesPerPage values.
func (c *Column) fillPage(g dist.Generator, p int, buf []uint64) error {
	g.FillPage(p, buf)
	pg, err := c.PageBytes(p)
	if err != nil {
		return err
	}
	min, max := buf[0], buf[0]
	for i, v := range buf {
		SetValueAt(pg, i, v)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	SetZone(pg, min, max)
	return nil
}

// Fill populates every page's values from the generator and stamps exact
// zone fields.
func (c *Column) Fill(g dist.Generator) error {
	buf := make([]uint64, ValuesPerPage)
	for p := 0; p < c.numPages; p++ {
		if err := c.fillPage(g, p, buf); err != nil {
			return err
		}
	}
	return nil
}

// fillChunk is the number of pages a FillParallel worker claims at a
// time: large enough to amortize the atomic claim, small enough to keep
// workers balanced on skew-cost generators.
const fillChunk = 64

// FillParallel populates the column like Fill but shards pages across
// `workers` goroutines (<= 0 selects GOMAXPROCS). Generators keep no
// per-call state — FillPage depends only on (seed, page) — so the result
// is byte-identical to a serial Fill with the same generator, while
// multi-million-page columns initialize at memory speed. Workers claim
// disjoint page ranges and NewColumn has already faulted every page into
// the column's soft-TLB, so no locking is needed on the fill path.
func (c *Column) FillParallel(g dist.Generator, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > c.numPages {
		workers = c.numPages
	}
	if workers <= 1 {
		return c.Fill(g)
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		fillErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]uint64, ValuesPerPage)
			for {
				start := int(next.Add(fillChunk)) - fillChunk
				if start >= c.numPages {
					return
				}
				end := start + fillChunk
				if end > c.numPages {
					end = c.numPages
				}
				for p := start; p < end; p++ {
					if err := c.fillPage(g, p, buf); err != nil {
						errOnce.Do(func() { fillErr = err })
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return fillErr
}

// NumPages returns the column length in pages.
func (c *Column) NumPages() int { return c.numPages }

// Rows returns the number of value slots in the column.
func (c *Column) Rows() int { return c.numPages * ValuesPerPage }

// File returns the backing main-memory file.
func (c *Column) File() *vmsim.File { return c.file }

// Space returns the address space the column's views live in.
func (c *Column) Space() *vmsim.AddressSpace { return c.as }

// Kernel returns the owning simulated kernel.
func (c *Column) Kernel() *vmsim.Kernel { return c.kernel }

// FullViewAddr returns the base address of the full view.
func (c *Column) FullViewAddr() vmsim.Addr { return c.fullAddr }

// EnableTiering attaches a two-tier frame map to the column (idempotent:
// a second call returns the existing map, first configuration wins). A
// budget given as a fraction of the column — callers pass HotFrames
// directly — governs demotion; the engine's scan paths charge and
// validate accesses through the returned FileTier.
func (c *Column) EnableTiering(cfg vmsim.TierConfig) (*vmsim.FileTier, error) {
	if t := c.tier.Load(); t != nil {
		return t, nil
	}
	t, err := vmsim.NewFileTier(c.numPages, cfg)
	if err != nil {
		return nil, err
	}
	if !c.tier.CompareAndSwap(nil, t) {
		return c.tier.Load(), nil
	}
	return t, nil
}

// PageBytes returns physical page pageID accessed through the full view —
// a virtual-memory access whose translation is served from the column's
// soft-TLB after the first touch.
func (c *Column) PageBytes(pageID int) ([]byte, error) {
	if pageID < 0 || pageID >= c.numPages {
		return nil, fmt.Errorf("storage: page %d out of range [0,%d)", pageID, c.numPages)
	}
	if pg := (*c.tlb.Load())[pageID]; pg != nil {
		return pg, nil
	}
	// Cold slot: only reachable during mapColumn's own warming loop (the
	// constructor resolves every page before the column becomes visible),
	// so writing the slot here never races a reader.
	pg, err := c.as.PageData(vmsim.VPN(c.fullAddr>>vmsim.PageShift) + vmsim.VPN(pageID))
	if err != nil {
		return nil, err
	}
	(*c.tlb.Load())[pageID] = pg
	return pg, nil
}

// RowLocation splits a row index into (pageID, slot).
func (c *Column) RowLocation(row int) (pageID, slot int, err error) {
	if row < 0 || row >= c.Rows() {
		return 0, 0, fmt.Errorf("storage: row %d out of range [0,%d)", row, c.Rows())
	}
	return row / ValuesPerPage, row % ValuesPerPage, nil
}

// Value reads one row through the full view.
func (c *Column) Value(row int) (uint64, error) {
	p, s, err := c.RowLocation(row)
	if err != nil {
		return 0, err
	}
	pg, err := c.PageBytes(p)
	if err != nil {
		return 0, err
	}
	return ValueAt(pg, s), nil
}

// SetValue writes one row through the full view and returns the previous
// value — updates "happen through the full views" (§2.4), and the (row,
// old, new) triple is exactly what the update batches of §2.4 carry.
//
// On a column with EnableSnapshots, the first write to a page per
// snapshot epoch lands on a fresh copy of the page (copy-on-write, see
// pageForWrite): epoch readers holding the previous capture keep reading
// the frozen original, which is what makes lock-free routed reads both
// race-free and repeatable.
func (c *Column) SetValue(row int, v uint64) (old uint64, err error) {
	p, s, err := c.RowLocation(row)
	if err != nil {
		return 0, err
	}
	pg, err := c.pageForWrite(p)
	if err != nil {
		return 0, err
	}
	old = ValueAt(pg, s)
	SetValueAt(pg, s, v)
	updateZone(pg, old, v)
	return old, nil
}

// FullScan answers a range query [lo, hi] by scanning every page through
// the full view. This is the paper's baseline ("Baseline: Fullscan time").
func (c *Column) FullScan(lo, hi uint64) (count int, sum uint64, err error) {
	for p := 0; p < c.numPages; p++ {
		pg, err := c.PageBytes(p)
		if err != nil {
			return 0, 0, err
		}
		s := ScanFilter(pg, lo, hi)
		count += s.Count
		sum += s.Sum
	}
	return count, sum, nil
}

// Close unmaps the full view and removes the backing file. The caller must
// have destroyed all partial views first.
func (c *Column) Close() error {
	_ = c.as.MunmapPages(c.fullAddr, c.numPages) //asv:ignore-err the page-aligned full view always unmaps; vmsim never refuses a split
	return c.kernel.RemoveFile(c.name)
}
