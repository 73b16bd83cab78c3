package storage

import (
	"encoding/binary"
	"math/bits"
)

// This file holds the page kernels: one family of loops over the value
// slots page[HeaderSize:], each computing no more than its caller can
// use. A query pays for the cheapest member that answers it — the engine
// chooses once per query (core.Engine.pageFilter):
//
//	ScanCountSum   Count, Sum
//	ScanAggregate  … and Min, Max of the qualifying values
//	ScanBounds     MaxBelow, MinAbove of a page where nothing qualified
//	               (§2.2), or false at the first chunk with a match
//	ZoneScan       the same from the page header alone, for a page whose
//	               zone lies wholly below or above the range
//	ScanFilter     Count, Sum, MaxBelow, MinAbove of every page
//	MatchMask      one bit per qualifying slot
//
// All of them test the range without a branch: with w = hi-lo, a value
// qualifies exactly when v-lo <= w in wrapping arithmetic (a value below
// lo wraps to more than any width), so random data costs the same as
// sorted data. The loops walk the payload by re-slicing, the form the
// compiler proves in bounds, and are unrolled where that measured faster
// (BenchmarkPageScanKernels).

// PageScan is the result of filtering one page against a range predicate.
// Beyond the qualifying count and sum it can carry the smallest and
// largest qualifying value, and the boundary values the adaptive layer
// needs for candidate-range extension (§2.2): the largest on-page value
// strictly below the predicate and the smallest strictly above it. Which
// fields a kernel fills is in its own comment; the others stay zero.
type PageScan struct {
	Count    int    // qualifying values
	Sum      uint64 // sum of qualifying values (wrapping; a checkable aggregate)
	Min      uint64 // smallest qualifying value, valid if Count > 0 (ScanAggregate)
	Max      uint64 // largest qualifying value, valid if Count > 0 (ScanAggregate)
	MaxBelow uint64 // largest value < lo, valid if HasBelow
	MinAbove uint64 // smallest value > hi, valid if HasAbove
	HasBelow bool
	HasAbove bool
}

// Merge folds another PageScan into s — the reducer of the scan loop.
// Count and Sum add (wrapping addition); Min and Max keep the extreme
// over the scans that had a match; the boundary observations keep the
// tightest value on each side.
func (s *PageScan) Merge(o PageScan) {
	if o.Count > 0 {
		if s.Count == 0 || o.Min < s.Min {
			s.Min = o.Min
		}
		if s.Count == 0 || o.Max > s.Max {
			s.Max = o.Max
		}
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.HasBelow && (!s.HasBelow || o.MaxBelow > s.MaxBelow) {
		s.MaxBelow = o.MaxBelow
		s.HasBelow = true
	}
	if o.HasAbove && (!s.HasAbove || o.MinAbove < s.MinAbove) {
		s.MinAbove = o.MinAbove
		s.HasAbove = true
	}
}

// inRange returns all ones when d, a value's wrapping distance above lo,
// is within the width w of the range, and zero otherwise. The compiler
// turns the assignment into a conditional move.
func inRange(d, w uint64) uint64 {
	var m uint64
	if d <= w {
		m = ^uint64(0)
	}
	return m
}

// ScanCountSum filters a page against [lo, hi] (inclusive) and fills
// Count and Sum only: the kernel of a query that builds no candidate and
// wants no minimum or maximum.
func ScanCountSum(page []byte, lo, hi uint64) PageScan {
	w := hi - lo
	var c0, c1, s0, s1 uint64
	p := page[HeaderSize:PageSize]
	for len(p) >= 32 {
		v0 := binary.LittleEndian.Uint64(p)
		v1 := binary.LittleEndian.Uint64(p[8:])
		v2 := binary.LittleEndian.Uint64(p[16:])
		v3 := binary.LittleEndian.Uint64(p[24:])
		m0, m1, m2, m3 := inRange(v0-lo, w), inRange(v1-lo, w), inRange(v2-lo, w), inRange(v3-lo, w)
		c0 -= m0
		c1 -= m1
		c0 -= m2
		c1 -= m3
		s0 += v0 & m0
		s1 += v1 & m1
		s0 += v2 & m2
		s1 += v3 & m3
		p = p[32:]
	}
	for len(p) >= 8 {
		v := binary.LittleEndian.Uint64(p)
		m := inRange(v-lo, w)
		c0 -= m
		s0 += v & m
		p = p[8:]
	}
	return PageScan{Count: int(c0 + c1), Sum: s0 + s1}
}

// ScanAggregate filters a page like ScanCountSum and also fills Min and
// Max, the extremes of the qualifying values. Neither needs a mask of its
// own: qualifying values are the ones with the smallest distance above
// lo, so the minimum is lo plus the smallest distance seen; and the
// masked value the sum adds is zero for every other slot, so its maximum
// is the largest qualifying value.
func ScanAggregate(page []byte, lo, hi uint64) PageScan {
	w := hi - lo
	var c, s, mx uint64
	md := ^uint64(0)
	p := page[HeaderSize:PageSize]
	for len(p) >= 32 {
		v0 := binary.LittleEndian.Uint64(p)
		v1 := binary.LittleEndian.Uint64(p[8:])
		v2 := binary.LittleEndian.Uint64(p[16:])
		v3 := binary.LittleEndian.Uint64(p[24:])
		d0, d1, d2, d3 := v0-lo, v1-lo, v2-lo, v3-lo
		m0, m1, m2, m3 := inRange(d0, w), inRange(d1, w), inRange(d2, w), inRange(d3, w)
		v0 &= m0
		v1 &= m1
		v2 &= m2
		v3 &= m3
		c -= m0 + m1 + m2 + m3
		s += v0 + v1 + v2 + v3
		mx = max(mx, v0, v1, v2, v3)
		md = min(md, d0, d1, d2, d3)
		p = p[32:]
	}
	for len(p) >= 8 {
		v := binary.LittleEndian.Uint64(p)
		d := v - lo
		m := inRange(d, w)
		v &= m
		c -= m
		s += v
		mx = max(mx, v)
		md = min(md, d)
		p = p[8:]
	}
	r := PageScan{Count: int(c), Sum: s}
	if c > 0 {
		r.Min, r.Max = lo+md, mx
	}
	return r
}

// boundsChunk is the number of slots ScanBounds reads between two tests
// for a match: long enough that the test costs nothing beside the
// min/max pass, short enough that a dense page stops early.
const boundsChunk = 64

// ScanBounds is the first kernel of a query that builds a candidate view.
// On a page where nothing qualified — the only pages whose boundaries
// extend a candidate's range (§2.2) — it returns the boundary fields and
// true; that takes one running minimum and one running maximum of the
// distance v-lo per value, and no count, sum or mask. When no distance is
// within w, the distances of the values above hi fill (w, ^lo] and those
// of the values below lo wrap to [-lo, max], so the smallest distance
// belongs to the smallest value above hi and the largest to the largest
// value below lo. The page has a match exactly when the smallest distance
// is within w, which ScanBounds tests at the end of every boundsChunk
// slots: it returns false at the first chunk holding a qualifying value,
// and the caller runs the kernel it would run without a candidate.
func ScanBounds(page []byte, lo, hi uint64) (PageScan, bool) {
	w := hi - lo
	var top0, top1 uint64
	md0, md1 := ^uint64(0), ^uint64(0)
	p := page[HeaderSize:PageSize]
	for len(p) > 0 {
		c := p[:min(len(p), boundsChunk*8)]
		p = p[len(c):]
		for len(c) >= 32 {
			d0 := binary.LittleEndian.Uint64(c) - lo
			d1 := binary.LittleEndian.Uint64(c[8:]) - lo
			d2 := binary.LittleEndian.Uint64(c[16:]) - lo
			d3 := binary.LittleEndian.Uint64(c[24:]) - lo
			md0 = min(md0, d0, d2)
			md1 = min(md1, d1, d3)
			top0 = max(top0, d0, d2)
			top1 = max(top1, d1, d3)
			c = c[32:]
		}
		for len(c) >= 8 {
			d := binary.LittleEndian.Uint64(c) - lo
			md0 = min(md0, d)
			top0 = max(top0, d)
			c = c[8:]
		}
		if min(md0, md1) <= w {
			return PageScan{}, false
		}
	}
	md, top := min(md0, md1), max(top0, top1)
	var r PageScan
	if lo > 0 && top >= -lo {
		r.HasBelow, r.MaxBelow = true, lo+top
	}
	if md <= ^lo {
		r.HasAbove, r.MinAbove = true, lo+md
	}
	return r, true
}

// ZoneScan answers a page from its header zone when the zone lies wholly
// below lo or wholly above hi: nothing on the page qualifies, and the
// zone's maximum is its largest value below lo (or its minimum the
// smallest above hi). It returns that answer and true — on a page with an
// exact zone, exactly what ScanBounds returns, and a count of 0 — or
// false when the zone meets the range, and the caller scans the values.
// A zone wider than the page's values still answers correctly; its
// boundary only narrows the candidate range built from it.
func ZoneScan(page []byte, lo, hi uint64) (PageScan, bool) {
	zmin, zmax := Zone(page)
	if zmax < lo {
		return PageScan{MaxBelow: zmax, HasBelow: true}, true
	}
	if zmin > hi {
		return PageScan{MinAbove: zmin, HasAbove: true}, true
	}
	return PageScan{}, false
}

// ScanFilter scans all value slots of a page against [lo, hi] (inclusive)
// and fills Count, Sum and the boundary fields of every page in one pass:
// the kernel of callers outside the engine's read path (view creation,
// the explicit baselines of §3.1, FullScan). Both boundaries come from
// the distance d = v-lo the range test uses. Distances sort the slots
// into three bands — qualifying [0, w], above hi (w, ^lo], below lo
// [-lo, max] — so the largest value below lo has the largest distance of
// all, if that reaches -lo; and d-w-1 puts the values above hi in
// [0, ^hi) while every other wraps to ^hi or more, so the smallest value
// above hi has the smallest d-w-1.
func ScanFilter(page []byte, lo, hi uint64) PageScan {
	w := hi - lo
	w1 := w + 1
	var c, s, top uint64
	above := ^uint64(0)
	p := page[HeaderSize:PageSize]
	for len(p) >= 16 {
		v0 := binary.LittleEndian.Uint64(p)
		v1 := binary.LittleEndian.Uint64(p[8:])
		d0, d1 := v0-lo, v1-lo
		m0, m1 := inRange(d0, w), inRange(d1, w)
		c -= m0 + m1
		s += v0&m0 + v1&m1
		top = max(top, d0, d1)
		above = min(above, d0-w1, d1-w1)
		p = p[16:]
	}
	for len(p) >= 8 {
		v := binary.LittleEndian.Uint64(p)
		d := v - lo
		m := inRange(d, w)
		c -= m
		s += v & m
		top = max(top, d)
		above = min(above, d-w1)
		p = p[8:]
	}
	r := PageScan{Count: int(c), Sum: s}
	if lo > 0 && top >= -lo {
		r.HasBelow, r.MaxBelow = true, lo+top
	}
	if above < ^hi {
		r.HasAbove, r.MinAbove = true, hi+1+above
	}
	return r
}

// MaskWords is the length of a PageMask: one bit per value slot.
const MaskWords = (ValuesPerPage + 63) / 64

// PageMask holds one bit per value slot of a page: bit j of word k is
// slot 64k+j. The bits past ValuesPerPage in the last word stay zero.
type PageMask [MaskWords]uint64

// MatchMask sets mask to the qualifying slots of the page for [lo, hi]
// (inclusive) and returns their number. Row-materializing queries OR the
// mask into their row set at the page's row offset.
func MatchMask(page []byte, lo, hi uint64, mask *PageMask) int {
	w := hi - lo
	*mask = PageMask{}
	p := page[HeaderSize:PageSize]
	// Four slots make one nibble; sixteen nibbles a word. inRange is all
	// ones or zero, so masking it with 1, 2, 4, 8 places each slot's bit.
	g := uint(0)
	for ; len(p) >= 32; g++ {
		nib := inRange(binary.LittleEndian.Uint64(p)-lo, w)&1 |
			inRange(binary.LittleEndian.Uint64(p[8:])-lo, w)&2 |
			inRange(binary.LittleEndian.Uint64(p[16:])-lo, w)&4 |
			inRange(binary.LittleEndian.Uint64(p[24:])-lo, w)&8
		mask[g/16%MaskWords] |= nib << (g % 16 * 4)
		p = p[32:]
	}
	for slot := g * 4; len(p) >= 8; slot++ {
		mask[slot/64%MaskWords] |= inRange(binary.LittleEndian.Uint64(p)-lo, w) & 1 << (slot % 64)
		p = p[8:]
	}
	n := 0
	for _, m := range mask {
		n += bits.OnesCount64(m)
	}
	return n
}

// CollectMatches calls emit(slot, value) for every qualifying slot of the
// page in slot order, for callers that materialize row results rather
// than aggregates.
func CollectMatches(page []byte, lo, hi uint64, emit func(slot int, v uint64)) {
	var mask PageMask
	MatchMask(page, lo, hi, &mask)
	for k, m := range mask {
		for ; m != 0; m &= m - 1 {
			slot := k*64 + bits.TrailingZeros64(m)
			emit(slot, ValueAt(page, slot))
		}
	}
}
