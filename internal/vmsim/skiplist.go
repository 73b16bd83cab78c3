package vmsim

import "github.com/asv-db/asv/internal/xrand"

// vmaList is an ordered index of non-overlapping VMAs keyed by start page,
// implemented as a skiplist. The real kernel keeps its VMAs in a balanced
// structure (an rbtree, later a maple tree) precisely because address
// spaces with hundreds of thousands of mappings are common once rewiring
// is in play — the paper raises vm.max_map_count to 2^32-1 (§3). A sorted
// slice would make each of the hundreds of thousands of single-page mmap
// calls in the unoptimized Figure 6 configuration an O(n) memmove;
// the skiplist keeps insert/delete/seek at O(log n), preserving the
// kernel's cost profile.
type vmaList struct {
	head  *vmaNode
	level int
	size  int
	rng   *xrand.Rand
}

const maxSkipLevel = 24

type vmaNode struct {
	vma  *VMA
	next [maxSkipLevel]*vmaNode
}

func newVMAList(seed uint64) *vmaList {
	return &vmaList{
		head:  &vmaNode{},
		level: 1,
		rng:   xrand.New(seed),
	}
}

// randLevel draws a node height with P(level >= k+1 | level >= k) = 1/4.
func (l *vmaList) randLevel() int {
	lvl := 1
	for lvl < maxSkipLevel && l.rng.Uint64()&3 == 0 {
		lvl++
	}
	return lvl
}

// findPredecessors fills pred[i] with the rightmost node at level i whose
// start is < key, and returns the node following pred[0] (the candidate
// match, i.e. the first node with start >= key).
func (l *vmaList) findPredecessors(key VPN, pred *[maxSkipLevel]*vmaNode) *vmaNode {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].vma.start < key {
			x = x.next[i]
		}
		pred[i] = x
	}
	return x.next[0]
}

// insert adds v to the list. The caller guarantees no existing VMA has the
// same start (enforced at the address-space layer by overlap resolution).
func (l *vmaList) insert(v *VMA) {
	var pred [maxSkipLevel]*vmaNode
	l.findPredecessors(v.start, &pred)
	lvl := l.randLevel()
	for l.level < lvl {
		pred[l.level] = l.head
		l.level++
	}
	n := &vmaNode{vma: v}
	for i := 0; i < lvl; i++ {
		n.next[i] = pred[i].next[i]
		pred[i].next[i] = n
	}
	l.size++
}

// remove deletes the VMA starting at key and reports whether it existed.
func (l *vmaList) remove(key VPN) bool {
	var pred [maxSkipLevel]*vmaNode
	n := l.findPredecessors(key, &pred)
	if n == nil || n.vma.start != key {
		return false
	}
	for i := 0; i < l.level; i++ {
		if pred[i].next[i] == n {
			pred[i].next[i] = n.next[i]
		}
	}
	for l.level > 1 && l.head.next[l.level-1] == nil {
		l.level--
	}
	l.size--
	return true
}

// seekGE returns the first node whose VMA start is >= key, or nil.
func (l *vmaList) seekGE(key VPN) *vmaNode {
	var pred [maxSkipLevel]*vmaNode
	return l.findPredecessors(key, &pred)
}

// floor returns the last VMA with start <= key, or nil.
func (l *vmaList) floor(key VPN) *VMA {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].vma.start <= key {
			x = x.next[i]
		}
	}
	if x == l.head {
		return nil
	}
	return x.vma
}

// containing returns the VMA whose page range contains vpn, or nil.
func (l *vmaList) containing(vpn VPN) *VMA {
	v := l.floor(vpn)
	if v != nil && vpn < v.end {
		return v
	}
	return nil
}

// len returns the number of VMAs.
func (l *vmaList) len() int { return l.size }

// each calls fn for every VMA in start order; fn returning false stops.
func (l *vmaList) each(fn func(*VMA) bool) {
	for n := l.head.next[0]; n != nil; n = n.next[0] {
		if !fn(n.vma) {
			return
		}
	}
}
