package vmsim

import (
	"fmt"
	"sync"
)

// Perm describes VMA permissions as rendered in the maps file.
type Perm struct {
	Read, Write, Exec bool
	// Shared selects MAP_SHARED semantics (writes reach the backing file);
	// false renders as private ("p").
	Shared bool
}

// String renders the permission column of /proc/PID/maps, e.g. "rw-s".
func (p Perm) String() string {
	b := [4]byte{'-', '-', '-', 'p'}
	if p.Read {
		b[0] = 'r'
	}
	if p.Write {
		b[1] = 'w'
	}
	if p.Exec {
		b[2] = 'x'
	}
	if p.Shared {
		b[3] = 's'
	}
	return string(b[:])
}

// PermRWShared is the permission set used by all storage-view mappings.
var PermRWShared = Perm{Read: true, Write: true, Shared: true}

// PermRWPrivate is the permission set used for anonymous reservations.
var PermRWPrivate = Perm{Read: true, Write: true}

// VMA is a virtual memory area: a maximal run of pages with identical
// backing (same file, contiguous file offsets) and permissions. One line
// of the maps file corresponds to one VMA.
type VMA struct {
	start, end VPN // page range [start, end)
	perm       Perm
	file       *File // nil for anonymous areas
	filePage   int   // file page backing 'start' (0 for anonymous)
}

// Start returns the first byte address of the area.
func (v *VMA) Start() Addr { return Addr(v.start) << PageShift }

// End returns the first byte address past the area.
func (v *VMA) End() Addr { return Addr(v.end) << PageShift }

// Pages returns the length of the area in pages.
func (v *VMA) Pages() int { return int(v.end - v.start) }

// MapStats counts address-space operations. The view-creation experiments
// (Fig. 6) and the maps-parsing experiment (Fig. 7) are explained by these
// counters: fewer calls per mapped page and fewer live VMAs are exactly
// what the paper's two optimizations and clustered data buy.
type MapStats struct {
	MmapCalls     uint64 // Mmap invocations (any variant)
	MunmapCalls   uint64 // Munmap invocations
	PagesMapped   uint64 // pages covered by Mmap calls (cumulative)
	PagesUnmapped uint64 // pages removed by Munmap or MAP_FIXED overlap
	VMASplits     uint64 // existing VMAs split by overlap resolution
	VMAMerges     uint64 // adjacent compatible VMAs merged
	MinorFaults   uint64 // demand-zero faults on anonymous pages
	DemandMaps    uint64 // MmapFileFixedDemand calls (lazy views mapped at their first mutation)
	VMACount      int    // current number of VMAs
}

// AddressSpace is a simulated process address space. Mmap, Munmap and the
// page-table accessors are safe for concurrent use; this is what allows
// the background mapping thread of §2.3 to install pages while the scan
// thread keeps reading through other views.
type AddressSpace struct {
	kernel *Kernel
	pid    int

	mu          sync.RWMutex
	vmas        *vmaList
	pt          pageTable
	nextMapHint VPN
	maxMapCount int
	stats       MapStats
}

// mmapBase is where kernel-chosen mappings start (mimics the x86-64
// mmap_base ballpark so rendered addresses look familiar).
const mmapBase VPN = 0x7f00_0000_0000 >> PageShift

// addrSpaceTop bounds the simulated virtual address space (47-bit
// user-space, as on x86-64 with 4-level paging).
const addrSpaceTop VPN = 1 << (47 - PageShift)

// NewAddressSpace creates an empty address space with the default
// vm.max_map_count limit.
func (k *Kernel) NewAddressSpace() *AddressSpace {
	k.mu.Lock()
	pid := k.nextPID
	k.nextPID++
	k.mu.Unlock()
	return &AddressSpace{
		kernel:      k,
		pid:         pid,
		vmas:        newVMAList(uint64(pid) * 0x9e3779b97f4a7c15),
		pt:          newPageTable(),
		nextMapHint: mmapBase,
		maxMapCount: DefaultMaxMapCount,
	}
}

// PID returns the simulated process ID.
func (as *AddressSpace) PID() int { return as.pid }

// SetMaxMapCount adjusts the maximum number of VMAs, the analogue of
// writing to /proc/sys/vm/max_map_count. The paper raises the limit from
// 2^16-1 to 2^32-1 for all experiments (§3).
func (as *AddressSpace) SetMaxMapCount(n int) {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.maxMapCount = n
}

// Stats returns a snapshot of the operation counters.
func (as *AddressSpace) Stats() MapStats {
	as.mu.RLock()
	defer as.mu.RUnlock()
	s := as.stats
	s.VMACount = as.vmas.len()
	return s
}

// MmapAnon reserves a region of n pages of anonymous memory at a
// kernel-chosen address. This is the cheap over-allocation step of view
// creation: "This first call to mmap() acts as a mere reservation of
// virtual memory for our view and is almost for free" (§2). No physical
// frames are allocated until a page is touched.
func (as *AddressSpace) MmapAnon(n int) (Addr, error) {
	return as.mmapChooseAddr(nil, 0, n, PermRWPrivate)
}

// MmapFile maps n pages of file f starting at file page off, at a
// kernel-chosen address with shared semantics. The full view over a
// physical column is created this way.
func (as *AddressSpace) MmapFile(f *File, off, n int) (Addr, error) {
	if f == nil {
		return 0, fmt.Errorf("%w: nil file", ErrInvalid)
	}
	return as.mmapChooseAddr(f, off, n, PermRWShared)
}

// MmapFileFixed re-points the n virtual pages starting at addr to file
// pages [off, off+n) with shared semantics — the rewiring step. Any
// previous mapping of those pages (anonymous reservation or an earlier
// rewiring) is implicitly unmapped first, exactly like MAP_FIXED. The
// page-table entries are populated eagerly, so there are no later soft
// faults (the paper measures the post-remap fault overhead as negligible).
func (as *AddressSpace) MmapFileFixed(addr Addr, f *File, off, n int) error {
	if f == nil {
		return fmt.Errorf("%w: nil file", ErrInvalid)
	}
	if addr%PageSize != 0 {
		return fmt.Errorf("%w: address %#x not page-aligned", ErrInvalid, addr)
	}
	if n <= 0 {
		return fmt.Errorf("%w: non-positive length %d", ErrInvalid, n)
	}
	frames, err := f.frameRange(off, n)
	if err != nil {
		return err
	}
	start := VPN(addr >> PageShift)
	if start+VPN(n) > addrSpaceTop {
		return fmt.Errorf("%w: mapping past end of address space", ErrNoMemory)
	}

	as.mu.Lock()
	defer as.mu.Unlock()
	as.stats.MmapCalls++
	as.stats.PagesMapped += uint64(n)

	// Room check before mutating: overlap resolution can add up to two
	// VMAs (a split) plus the new area.
	if as.vmas.len()+2 > as.maxMapCount {
		return fmt.Errorf("%w: vm.max_map_count (%d) exceeded", ErrNoMemory, as.maxMapCount)
	}

	as.unmapRangeLocked(start, start+VPN(n))
	as.insertMergedLocked(&VMA{
		start: start, end: start + VPN(n),
		perm: PermRWShared, file: f, filePage: off,
	})
	// Eager population (MAP_POPULATE behaviour).
	for i, fr := range frames {
		as.pt.set(start+VPN(i), fr)
	}
	f.addRefs(n)
	return nil
}

// MmapFileFixedDemand is MmapFileFixed invoked when a lazily created view
// is mapped at its first mutation session: identical semantics, counted
// separately (MapStats.DemandMaps), so experiments can tell that deferred
// mapping apart from eager creation-time mapping.
func (as *AddressSpace) MmapFileFixedDemand(addr Addr, f *File, off, n int) error {
	if err := as.MmapFileFixed(addr, f, off, n); err != nil {
		return err
	}
	as.mu.Lock()
	as.stats.DemandMaps++
	as.mu.Unlock()
	return nil
}

// MunmapPages removes any mappings covering pages [addr, addr+n*PageSize).
// Unmapped gaps inside the range are ignored, like Linux munmap.
func (as *AddressSpace) MunmapPages(addr Addr, n int) error {
	if addr%PageSize != 0 {
		return fmt.Errorf("%w: address %#x not page-aligned", ErrInvalid, addr)
	}
	if n < 0 {
		return fmt.Errorf("%w: negative length", ErrInvalid)
	}
	start := VPN(addr >> PageShift)
	as.mu.Lock()
	defer as.mu.Unlock()
	as.stats.MunmapCalls++
	as.unmapRangeLocked(start, start+VPN(n))
	return nil
}

// mmapChooseAddr implements the non-FIXED variants: find a gap, insert.
func (as *AddressSpace) mmapChooseAddr(f *File, off, n int, perm Perm) (Addr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("%w: non-positive length %d", ErrInvalid, n)
	}
	var frames []FrameID
	if f != nil {
		var err error
		frames, err = f.frameRange(off, n)
		if err != nil {
			return 0, err
		}
	}

	as.mu.Lock()
	defer as.mu.Unlock()
	as.stats.MmapCalls++
	as.stats.PagesMapped += uint64(n)
	if as.vmas.len()+1 > as.maxMapCount {
		return 0, fmt.Errorf("%w: vm.max_map_count (%d) exceeded", ErrNoMemory, as.maxMapCount)
	}

	start, err := as.findGapLocked(VPN(n))
	if err != nil {
		return 0, err
	}
	as.insertMergedLocked(&VMA{
		start: start, end: start + VPN(n),
		perm: perm, file: f, filePage: off,
	})
	for i, fr := range frames {
		as.pt.set(start+VPN(i), fr)
	}
	if f != nil {
		f.addRefs(n)
	}
	return Addr(start) << PageShift, nil
}

// findGapLocked returns the start of a free range of n pages. It bumps a
// hint pointer upward and falls back to a full first-fit search from
// mmapBase when the hint runs past the top — enough realism for the
// simulator, where address-space exhaustion is not under study.
//
//asv:locked=mu
func (as *AddressSpace) findGapLocked(n VPN) (VPN, error) {
	if as.nextMapHint+n <= addrSpaceTop && as.freeRangeLocked(as.nextMapHint, as.nextMapHint+n) {
		s := as.nextMapHint
		as.nextMapHint += n
		return s, nil
	}
	// First-fit scan across gaps between VMAs.
	prevEnd := mmapBase
	found := VPN(0)
	ok := false
	as.vmas.each(func(v *VMA) bool {
		if v.end <= prevEnd {
			return true
		}
		if v.start >= prevEnd && v.start-prevEnd >= n {
			found, ok = prevEnd, true
			return false
		}
		if v.end > prevEnd {
			prevEnd = v.end
		}
		return true
	})
	if !ok && addrSpaceTop-prevEnd >= n {
		found, ok = prevEnd, true
	}
	if !ok {
		return 0, fmt.Errorf("%w: no free virtual range of %d pages", ErrNoMemory, n)
	}
	as.nextMapHint = found + n
	return found, nil
}

// freeRangeLocked reports whether [start, end) overlaps no VMA.
//
//asv:locked=mu
func (as *AddressSpace) freeRangeLocked(start, end VPN) bool {
	if v := as.vmas.floor(start); v != nil && v.end > start {
		return false
	}
	if n := as.vmas.seekGE(start); n != nil && n.vma.start < end {
		return false
	}
	return true
}

// unmapRangeLocked removes all mappings inside [start, end), splitting or
// shrinking VMAs that straddle the boundary and clearing page-table
// entries. Anonymous frames that were demand-allocated are freed.
//
//asv:locked=mu
func (as *AddressSpace) unmapRangeLocked(start, end VPN) {
	if end <= start {
		return
	}
	// Collect overlapping VMAs first: mutating the skiplist while walking
	// it would invalidate the iteration.
	var overlaps []*VMA
	if v := as.vmas.floor(start); v != nil && v.end > start {
		overlaps = append(overlaps, v)
	}
	for n := as.vmas.seekGE(start + 1); n != nil && n.vma.start < end; n = n.next[0] {
		overlaps = append(overlaps, n.vma)
	}

	for _, v := range overlaps {
		lo, hi := v.start, v.end
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		as.clearPagesLocked(v, lo, hi)
		as.stats.PagesUnmapped += uint64(hi - lo)

		switch {
		case v.start >= start && v.end <= end:
			// Fully covered: drop.
			as.vmas.remove(v.start)
		case v.start < start && v.end > end:
			// Strictly inside: split into head and tail.
			tail := &VMA{
				start: end, end: v.end, perm: v.perm, file: v.file,
				filePage: v.filePage + int(end-v.start),
			}
			v.end = start
			as.vmas.insert(tail)
			as.stats.VMASplits++
		case v.start < start:
			// Overlaps the head boundary: shrink from the right.
			v.end = start
		default:
			// Overlaps the tail boundary: shrink from the left. The key
			// (start) changes, so reinsert.
			as.vmas.remove(v.start)
			v.filePage += int(end - v.start)
			v.start = end
			as.vmas.insert(v)
		}
	}
}

// clearPagesLocked drops page-table entries in [lo, hi) of VMA v, freeing
// demand-allocated anonymous frames and releasing file page references.
// Its cost follows the populated page-table leaves under the range, not
// the range's length (see pageTable.clearRange).
//
//asv:locked=mu
func (as *AddressSpace) clearPagesLocked(v *VMA, lo, hi VPN) {
	if v.file == nil {
		as.pt.clearRange(lo, hi, as.kernel.freeFrame)
		return
	}
	if n := as.pt.clearRange(lo, hi, func(FrameID) {}); n > 0 {
		v.file.addRefs(-n)
	}
}

// insertMergedLocked inserts v, merging it with adjacent compatible VMAs.
// Two areas merge when their page ranges touch, permissions match, and the
// backing is contiguous (same file with consecutive file pages, or both
// anonymous). This is why mapping consecutive qualifying pages — the §2.3
// optimization — also keeps the maps file short: the merged area renders
// as a single line.
//
//asv:locked=mu
func (as *AddressSpace) insertMergedLocked(v *VMA) {
	// Merge with predecessor.
	if p := as.vmas.floor(v.start); p != nil && p.end == v.start && mergeable(p, v) {
		as.vmas.remove(p.start)
		v.start = p.start
		v.filePage = p.filePage
		as.stats.VMAMerges++
	}
	// Merge with successor.
	if n := as.vmas.seekGE(v.start + 1); n != nil && n.vma.start == v.end && mergeable(v, n.vma) {
		as.vmas.remove(n.vma.start)
		v.end = n.vma.end
		as.stats.VMAMerges++
	}
	as.vmas.insert(v)
}

// mergeable reports whether b can be appended to a (a.end == b.start is
// checked by the caller).
func mergeable(a, b *VMA) bool {
	if a.perm != b.perm || a.file != b.file {
		return false
	}
	if a.file == nil {
		return true
	}
	return a.filePage+a.Pages() == b.filePage
}

// RepointPage refreshes the page-table entry of vpn to the backing
// file's current frame. After File.ReplacePageFrame swapped a frame
// behind a file page (copy-on-write), translations resolved before the
// swap still reference the displaced frame; owners of such mappings call
// RepointPage for the virtual pages they know map the replaced file
// page. It is a no-op when vpn lies outside any VMA, the VMA is
// anonymous, or the entry already points at the current frame. Unlike
// MmapFileFixed it touches no VMA state, so it is cheap and never splits
// or merges areas.
func (as *AddressSpace) RepointPage(vpn VPN) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	v := as.vmas.containing(vpn)
	if v == nil || v.file == nil {
		return nil
	}
	fr, err := v.file.frame(v.filePage + int(vpn-v.start))
	if err != nil {
		return err
	}
	// Only refresh a present entry: file pages are populated eagerly at
	// map time, so an absent entry means the file shrank under the
	// mapping — installing one here would skew the file's mapped-page
	// refcount.
	if cur, ok := as.pt.get(vpn); ok && cur != fr {
		as.pt.set(vpn, fr)
	}
	return nil
}

// PageData returns the 4 KiB page backing the virtual page vpn. For
// anonymous areas this demand-allocates a zeroed frame on first access (a
// minor fault). Accessing an unmapped page returns ErrFault. The returned
// slice aliases physical memory directly — reads and writes behave exactly
// like dereferencing the virtual address.
func (as *AddressSpace) PageData(vpn VPN) ([]byte, error) {
	as.mu.RLock()
	if fr, ok := as.pt.get(vpn); ok {
		k := as.kernel
		as.mu.RUnlock()
		return k.frameData(fr), nil
	}
	as.mu.RUnlock()

	// Slow path: possible demand-zero fault. Re-check under the write lock.
	as.mu.Lock()
	defer as.mu.Unlock()
	if fr, ok := as.pt.get(vpn); ok {
		return as.kernel.frameData(fr), nil
	}
	v := as.vmas.containing(vpn)
	if v == nil {
		return nil, fmt.Errorf("%w: vpn %#x", ErrFault, vpn)
	}
	if v.file != nil {
		// File pages are populated eagerly at map time; reaching here
		// means the file shrank under the mapping (SIGBUS territory).
		return nil, fmt.Errorf("%w: file page gone under vpn %#x", ErrFault, vpn)
	}
	fr, err := as.kernel.allocFrame() //asv:handoff the frame is installed in the page table; unmap frees it
	if err != nil {
		return nil, err
	}
	as.pt.set(vpn, fr)
	as.stats.MinorFaults++
	return as.kernel.frameData(fr), nil
}

// VMACount returns the current number of VMAs.
func (as *AddressSpace) VMACount() int {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.vmas.len()
}

// EachVMA calls fn for every VMA in address order with a copy of the VMA
// descriptor; fn returning false stops the walk.
func (as *AddressSpace) EachVMA(fn func(VMA) bool) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	as.vmas.each(func(v *VMA) bool { return fn(*v) })
}
