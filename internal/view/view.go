// Package view implements virtual storage views: virtual-memory areas that
// map page-wise onto subsets of a physical column (§1.1, §2).
//
// A full view v[-inf,inf] spans the whole column in order. A partial view
// v[l,u] over-allocates a virtual area of the column's size and maps only
// the physical pages that contain at least one value in [l, u], densely
// packed from the start of the area. The covered value range and the page
// count are the only materialized metadata (§2); everything else — which
// tuple a value belongs to — is recovered from the 8-byte pageID embedded
// in each physical page.
//
// The package also implements the two creation optimizations of §2.3:
// mapping runs of consecutive qualifying physical pages in a single mmap
// call, and performing the mmap calls on a separate mapping thread fed
// through a concurrent queue.
package view

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/vmsim"
)

// ErrFullView is returned by operations that only apply to partial views.
var ErrFullView = errors.New("view: operation not valid on the full view")

// View is a virtual view over a column: either the full view or a partial
// view covering the inclusive value range [Lo, Hi].
//
// Views are not safe for concurrent mutation; the adaptive engine takes
// its write lock around update alignment, page rewiring and release.
// Concurrent reads — through the same view or different views — are safe:
// the soft-TLB is fully resolved when a view becomes visible (NewFull,
// Builder.Finish, AppendPage, EnsureMapped), and PageBytes never writes
// view state.
type View struct {
	col      *storage.Column
	addr     vmsim.Addr
	capacity int // over-allocated virtual pages (== column pages)
	numPages int // mapped prefix [0, numPages)
	lo, hi   uint64
	full     bool

	// tlb caches the resolved physical page slice per view slot. On real
	// hardware this translation is performed by the MMU and cached in the
	// TLB at zero software cost — which is exactly why the paper's virtual
	// views beat explicit indexes ("least code complexity, naturally
	// exploits hardware prefetching", §3.1). In the simulator the walk is
	// software, so without this cache every view read would pay an
	// artificial page-table cost that the paper's system does not. The
	// cache is exact and complete: it holds one entry per mapped slot,
	// a slot's mapping only ever changes through AppendPage and
	// RemovePageAt, which maintain it, and every constructor resolves all
	// mapped slots up front (warmTLB). PageBytes therefore stays
	// write-free, so concurrent readers share the view without locking.
	//
	// Capture discipline: CapturePages hands the array itself to a
	// published engine state. From that moment the array is immutable —
	// every mutation session (update alignment) must start with
	// BeginTLBMutation, which installs a private clone. Constructors
	// produce fresh arrays, so new views need no clone.
	tlb [][]byte

	// lazy is the slot directory of a lazily created view
	// (CreateOptions.Lazy): the backing file page per slot, with nothing
	// mapped yet (see lazy.go). Nil for eager views and after EnsureMapped
	// converts the view to the soft-TLB representation above.
	lazy []int32

	// extraRefs counts references beyond the creation (owner) reference:
	// the logical refcount is extraRefs+1, so the zero value is a view
	// owned by exactly its creator. Published engine states Retain every
	// partial view they capture; Release decrements and the caller that
	// drops the count to zero performs the unmap. Releasing more often
	// than retaining+1 is a no-op, which makes double-release idempotent.
	extraRefs atomic.Int32

	// pinned exempts the view's pages from tier demotion (not from
	// whole-view eviction — the pre-tiering lifecycle is unchanged for
	// pinned views). Explicit creation with the Pinned option sets it, so
	// enabling tiering never slows an explicitly requested hot range.
	// Atomic: the engine sets it under the exclusive engine lock, the
	// autopilot reads it under the shared one.
	pinned atomic.Bool
}

// NewFull wraps a column's always-present full view. Releasing it is a
// no-op: the column owns its mapping. The soft-TLB is seeded from the
// column's (fully resolved at NewColumn); a resolution failure is
// propagated rather than left as a nil slot.
func NewFull(col *storage.Column) (*View, error) {
	v := &View{
		col:      col,
		addr:     col.FullViewAddr(),
		capacity: col.NumPages(),
		numPages: col.NumPages(),
		lo:       0,
		hi:       ^uint64(0),
		full:     true,
		tlb:      make([][]byte, col.NumPages()),
	}
	for i := range v.tlb {
		pg, err := col.PageBytes(i)
		if err != nil {
			return nil, fmt.Errorf("view: warming full-view TLB: %w", err)
		}
		v.tlb[i] = pg
	}
	return v, nil
}

// warmTLB resolves every mapped slot's translation. Constructors call it
// before a view becomes visible to readers, so the scan path stays free
// of writes (and of the simulated page-table lock).
func (v *View) warmTLB() error {
	tlb := make([][]byte, v.numPages)
	for i := range tlb {
		pg, err := v.col.Space().PageData(vmsim.VPN(v.BaseVPN() + uint64(i)))
		if err != nil {
			return err
		}
		tlb[i] = pg
	}
	v.tlb = tlb
	return nil
}

// Column returns the underlying column.
func (v *View) Column() *storage.Column { return v.col }

// Lo returns the lower bound of the covered value range (inclusive).
func (v *View) Lo() uint64 { return v.lo }

// Hi returns the upper bound of the covered value range (inclusive).
func (v *View) Hi() uint64 { return v.hi }

// NumPages returns the number of physical pages the view indexes.
func (v *View) NumPages() int { return v.numPages }

// Full reports whether this is the column's full view.
func (v *View) Full() bool { return v.full }

// BaseVPN returns the first virtual page number of the view's area.
func (v *View) BaseVPN() uint64 { return uint64(v.addr) >> vmsim.PageShift }

// EndMappedVPN returns the virtual page number just past the mapped prefix.
func (v *View) EndMappedVPN() uint64 { return v.BaseVPN() + uint64(v.numPages) }

// SetPinned marks or unmarks the view as exempt from tier demotion.
func (v *View) SetPinned(p bool) { v.pinned.Store(p) }

// Pinned reports whether the view's pages are exempt from tier demotion.
func (v *View) Pinned() bool { return v.pinned.Load() }

// CoversSubsetOf reports whether v's range is contained in o's (Listing 1,
// line 24).
func (v *View) CoversSubsetOf(o *View) bool { return o.lo <= v.lo && v.hi <= o.hi }

// CoversSupersetOf reports whether v's range contains o's (Listing 1,
// line 28).
func (v *View) CoversSupersetOf(o *View) bool { return v.lo <= o.lo && o.hi <= v.hi }

// PageBytes returns the i-th mapped page of the view: a virtual-memory
// access through the view's area, with the translation served from the
// view's soft-TLB. A lazy view has nothing mapped, so its slot's backing
// page is read through the column instead.
func (v *View) PageBytes(i int) ([]byte, error) {
	if i < 0 || i >= v.numPages {
		return nil, fmt.Errorf("view: page %d out of mapped range [0,%d)", i, v.numPages)
	}
	if v.lazy != nil {
		return v.col.PageBytes(int(v.lazy[i]))
	}
	return v.tlb[i], nil
}

// ScanResult aggregates a range scan over a view.
type ScanResult struct {
	Count        int    // qualifying values
	Sum          uint64 // wrapping sum of qualifying values
	PagesScanned int    // physical pages actually read
}

// Scan answers the range query [lo, hi] from this view alone.
func (v *View) Scan(lo, hi uint64) (ScanResult, error) {
	var r ScanResult
	for i := 0; i < v.numPages; i++ {
		pg, err := v.PageBytes(i)
		if err != nil {
			return r, err
		}
		s := storage.ScanFilter(pg, lo, hi)
		r.Count += s.Count
		r.Sum += s.Sum
		r.PagesScanned++
	}
	return r, nil
}

// PageIDs returns the physical page IDs the view currently indexes, in
// virtual order. Intended for tests and inspection tools.
func (v *View) PageIDs() ([]uint64, error) {
	if v.lazy != nil {
		// The slot directory already records the backing file page per
		// slot.
		ids := make([]uint64, v.numPages)
		for i, f := range v.lazy {
			ids[i] = uint64(f)
		}
		return ids, nil
	}
	ids := make([]uint64, v.numPages)
	for i := 0; i < v.numPages; i++ {
		pg, err := v.PageBytes(i)
		if err != nil {
			return nil, err
		}
		ids[i] = storage.PageID(pg)
	}
	return ids, nil
}

// AppendPage maps physical page filePage at the next unused virtual page
// of the view — the §2.4 case (1) action, possible because of the creation
// over-allocation. It returns the virtual page number used.
func (v *View) AppendPage(filePage int) (uint64, error) {
	if v.full {
		return 0, ErrFullView
	}
	if err := v.EnsureMapped(); err != nil {
		return 0, err
	}
	if v.numPages >= v.capacity {
		return 0, fmt.Errorf("view: no unused virtual pages left (capacity %d)", v.capacity)
	}
	slot := v.numPages
	addr := v.addr + vmsim.Addr(slot)*vmsim.PageSize
	if err := v.col.Space().MmapFileFixed(addr, v.col.File(), filePage, 1); err != nil {
		return 0, err
	}
	v.numPages++
	// Resolve the new slot now: readers admitted after this mutation
	// must find a fully-warmed TLB (PageBytes never writes it).
	pg, err := v.col.Space().PageData(vmsim.VPN(v.BaseVPN() + uint64(slot)))
	if err != nil {
		return 0, err
	}
	v.tlb = append(v.tlb, pg)
	return v.BaseVPN() + uint64(slot), nil
}

// RemovedPage describes the page movement performed by RemovePageAt so
// callers (update alignment) can keep their bimap consistent.
type RemovedPage struct {
	// MovedFilePage is the physical page that was relocated into the hole,
	// or -1 when the removed page was the last one (nothing moved).
	MovedFilePage int64
	// MovedToVPN is the virtual page MovedFilePage now occupies.
	MovedToVPN uint64
	// FreedVPN is the virtual page that is no longer mapped.
	FreedVPN uint64
}

// RemovePageAt unmaps the view page at the given slot — the §2.4 case (2)
// action. To keep the mapped prefix dense (scans iterate [0, numPages)),
// the last mapped page is rewired into the hole first: one mmap plus one
// munmap, both at page granularity. This compaction is a documented
// divergence from the paper, which leaves the policy open (README.md,
// "Departures from the paper").
func (v *View) RemovePageAt(slot int) (RemovedPage, error) {
	if v.full {
		return RemovedPage{}, ErrFullView
	}
	if err := v.EnsureMapped(); err != nil {
		return RemovedPage{}, err
	}
	if slot < 0 || slot >= v.numPages {
		return RemovedPage{}, fmt.Errorf("view: remove slot %d out of range [0,%d)", slot, v.numPages)
	}
	last := v.numPages - 1
	res := RemovedPage{MovedFilePage: -1}
	if slot != last {
		lastPg, err := v.PageBytes(last)
		if err != nil {
			return res, err
		}
		movedFile := int64(storage.PageID(lastPg))
		addr := v.addr + vmsim.Addr(slot)*vmsim.PageSize
		if err := v.col.Space().MmapFileFixed(addr, v.col.File(), int(movedFile), 1); err != nil {
			return res, err
		}
		res.MovedFilePage = movedFile
		res.MovedToVPN = v.BaseVPN() + uint64(slot)
	}
	lastAddr := v.addr + vmsim.Addr(last)*vmsim.PageSize
	_ = v.col.Space().MunmapPages(lastAddr, 1) //asv:ignore-err a slot of the page-aligned reservation always unmaps; vmsim never refuses a split
	res.FreedVPN = v.BaseVPN() + uint64(last)
	v.numPages--
	// Soft-TLB: the hole's slot is re-resolved from the fresh mapping
	// rather than copied from the old last slot — under the snapshot
	// write path the moved file page may have been shadowed onto a new
	// frame since the last slot's translation was cached, and the mmap
	// above resolved the current frame.
	if res.MovedFilePage >= 0 {
		pg, err := v.col.Space().PageData(vmsim.VPN(v.BaseVPN() + uint64(slot)))
		if err != nil {
			return res, err
		}
		v.tlb[slot] = pg
	}
	v.tlb = v.tlb[:last]
	return res, nil
}

// BeginTLBMutation installs a private clone of the soft-TLB array,
// detaching it from any capture a published engine state may share
// (CapturePages). Update alignment calls it once per view before the
// first AppendPage/RemovePageAt/RefreshSlot of a session. The clone is sized exactly, so a later AppendPage reallocates
// instead of writing one past the captured length.
func (v *View) BeginTLBMutation() {
	clone := make([][]byte, len(v.tlb))
	copy(clone, v.tlb)
	v.tlb = clone
}

// RefreshSlot re-resolves the soft-TLB entry of one mapped slot to the
// given page bytes. Update alignment uses it for dirty pages a view
// keeps: under the snapshot write path the page's backing frame may have
// been shadowed since the slot's translation was cached, and the caller
// (holding the engine lock exclusively) passes the live bytes resolved
// through the column. BeginTLBMutation must have started the session.
func (v *View) RefreshSlot(slot int, pg []byte) {
	if slot >= 0 && slot < len(v.tlb) {
		v.tlb[slot] = pg
	}
}

// Retain adds one reference to the view. Published engine states retain
// every partial view they capture so a pinned snapshot can keep scanning
// a view that has since left the live set; the unmap happens when the
// last reference is released. Retaining the full view is harmless (its
// Release is a no-op regardless).
func (v *View) Retain() { v.extraRefs.Add(1) }

// Refs returns the view's logical reference count: the creation (owner)
// reference plus every outstanding Retain. Intended for tests and
// inspection tooling; the value is advisory under concurrency.
func (v *View) Refs() int { return int(v.extraRefs.Load()) + 1 }

// CapturePages returns the view's soft-TLB — one page slice per mapped
// slot, in virtual order — as an immutable capture for a published
// engine state. The array itself is shared: it is always complete, and
// mutation sessions clone before writing (see BeginTLBMutation). It is
// for eager views only: a lazy view has no soft-TLB (nil here) and is
// captured through LazyFilePages.
func (v *View) CapturePages() [][]byte { return v.tlb }

// Release drops one reference; the call that drops the last one unmaps
// the partial view's entire virtual area. A view starts with exactly its
// creation reference, so the historical single-owner call sites release
// as before; engine states add references via Retain. Releasing the full
// view is a no-op (the column owns it), as is releasing more often than
// retained — double-release stays idempotent.
func (v *View) Release() {
	if v.full {
		return
	}
	if n := v.extraRefs.Add(-1); n != -1 {
		return
	}
	if v.capacity == 0 {
		return
	}
	_ = v.col.Space().MunmapPages(v.addr, v.capacity) //asv:ignore-err a page-aligned reservation of capacity >= 1 always unmaps; vmsim never refuses a split
	v.capacity = 0
	v.numPages = 0
	v.tlb = nil
	v.lazy = nil
}

// String renders the view for logs: v[lo,hi] #pages.
func (v *View) String() string {
	if v.full {
		return fmt.Sprintf("v[-inf,inf] (%d pages)", v.numPages)
	}
	return fmt.Sprintf("v[%d,%d] (%d pages)", v.lo, v.hi, v.numPages)
}
