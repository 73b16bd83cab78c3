package vmsim

// pageTable maps virtual page numbers to physical frames. It is organized
// as a directory of 512-entry leaves, mirroring the bottom level of an
// x86-64 page table: the directory key is vpn >> 9, the leaf index is the
// low 9 bits. Entries store FrameID+1 so that zero means "not present",
// keeping a leaf at 2 KiB.
type pageTable struct {
	leaves map[VPN]*ptLeaf
}

const (
	ptLeafBits = 9
	ptLeafSize = 1 << ptLeafBits
	ptLeafMask = ptLeafSize - 1
)

type ptLeaf struct {
	entries [ptLeafSize]uint32 // FrameID+1; 0 = not present
	count   int                // live entries, for leaf reclamation
}

func newPageTable() pageTable {
	return pageTable{leaves: make(map[VPN]*ptLeaf)}
}

// get returns the frame mapped at vpn.
func (pt *pageTable) get(vpn VPN) (FrameID, bool) {
	leaf := pt.leaves[vpn>>ptLeafBits]
	if leaf == nil {
		return 0, false
	}
	e := leaf.entries[vpn&ptLeafMask]
	if e == 0 {
		return 0, false
	}
	return FrameID(e - 1), true
}

// set installs a mapping, replacing any previous one.
func (pt *pageTable) set(vpn VPN, f FrameID) {
	key := vpn >> ptLeafBits
	leaf := pt.leaves[key]
	if leaf == nil {
		leaf = &ptLeaf{}
		pt.leaves[key] = leaf
	}
	idx := vpn & ptLeafMask
	if leaf.entries[idx] == 0 {
		leaf.count++
	}
	leaf.entries[idx] = uint32(f) + 1
}

// clearRange removes every mapping in [lo, hi), passes each removed frame
// to drop in address order, and returns how many it removed. It walks the
// range one leaf at a time: one directory lookup per leaf, absent leaves
// skipped, a present leaf left as soon as its last live entry is gone, and
// emptied leaves reclaimed. So an unmap costs what is mapped under it, not
// what it spans — a kernel's unmap likewise skips empty page-table levels,
// which is what keeps releasing a column-sized reservation nearly free.
func (pt *pageTable) clearRange(lo, hi VPN, drop func(FrameID)) int {
	if lo >= hi {
		return 0
	}
	cleared := 0
	for key := lo >> ptLeafBits; key <= (hi-1)>>ptLeafBits; key++ {
		leaf := pt.leaves[key]
		if leaf == nil {
			continue
		}
		base := key << ptLeafBits
		first, last := max(lo, base)-base, min(hi-base, ptLeafSize)
		for i := first; i < last && leaf.count > 0; i++ {
			if e := leaf.entries[i]; e != 0 {
				leaf.entries[i] = 0
				leaf.count--
				cleared++
				drop(FrameID(e - 1))
			}
		}
		if leaf.count == 0 {
			delete(pt.leaves, key)
		}
	}
	return cleared
}
