package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"github.com/asv-db/asv/internal/xrand"
)

// refScanFilter is the page kernel as it stood before the branch-free
// family: a three-way branch per value. It is the oracle every kernel is
// checked against, and the "before" side of BenchmarkPageScanKernels.
func refScanFilter(page []byte, lo, hi uint64) PageScan {
	var s PageScan
	for i := 0; i < ValuesPerPage; i++ {
		v := binary.LittleEndian.Uint64(page[HeaderSize+i*8 : HeaderSize+i*8+8])
		switch {
		case v < lo:
			if !s.HasBelow || v > s.MaxBelow {
				s.MaxBelow = v
				s.HasBelow = true
			}
		case v > hi:
			if !s.HasAbove || v < s.MinAbove {
				s.MinAbove = v
				s.HasAbove = true
			}
		default:
			s.Count++
			s.Sum += v
		}
	}
	return s
}

// refCollectMatches is the per-value collect loop of the same vintage.
func refCollectMatches(page []byte, lo, hi uint64, emit func(slot int, v uint64)) {
	for i := 0; i < ValuesPerPage; i++ {
		v := binary.LittleEndian.Uint64(page[HeaderSize+i*8 : HeaderSize+i*8+8])
		if v >= lo && v <= hi {
			emit(i, v)
		}
	}
}

// refAggregate is what an Aggregate query cost per qualifying page before
// the family: the filter pass, then the collect pass with a closure call
// per match folding min and max. Its result is the oracle for every field.
func refAggregate(page []byte, lo, hi uint64) PageScan {
	s := refScanFilter(page, lo, hi)
	n := 0
	refCollectMatches(page, lo, hi, func(_ int, v uint64) {
		if n == 0 || v < s.Min {
			s.Min = v
		}
		if n == 0 || v > s.Max {
			s.Max = v
		}
		n++
	})
	return s
}

// checkKernels asserts every member of the family against the reference
// on the fields it fills.
func checkKernels(t *testing.T, page []byte, lo, hi uint64) {
	t.Helper()
	want := refAggregate(page, lo, hi)
	bounds := PageScan{MaxBelow: want.MaxBelow, MinAbove: want.MinAbove, HasBelow: want.HasBelow, HasAbove: want.HasAbove}
	filter := bounds
	filter.Count, filter.Sum = want.Count, want.Sum

	if got := ScanCountSum(page, lo, hi); got != (PageScan{Count: want.Count, Sum: want.Sum}) {
		t.Errorf("ScanCountSum[%d,%d] = %+v, want count %d sum %d", lo, hi, got, want.Count, want.Sum)
	}
	if got := ScanAggregate(page, lo, hi); got != (PageScan{Count: want.Count, Sum: want.Sum, Min: want.Min, Max: want.Max}) {
		t.Errorf("ScanAggregate[%d,%d] = %+v, want %+v", lo, hi, got, want)
	}
	if got, miss := ScanBounds(page, lo, hi); miss == (want.Count > 0) {
		t.Errorf("ScanBounds[%d,%d] reports a miss: %v, but the page has %d matches", lo, hi, miss, want.Count)
	} else if miss && got != bounds {
		t.Errorf("ScanBounds[%d,%d] = %+v, want %+v", lo, hi, got, bounds)
	}
	if got := ScanFilter(page, lo, hi); got != filter {
		t.Errorf("ScanFilter[%d,%d] = %+v, want %+v", lo, hi, got, filter)
	}
	// With an exact header, ZoneScan hits exactly on a page lying wholly
	// on one side of the range, and then gives ScanBounds' answer.
	vmin, vmax := PageMinMax(page)
	SetZone(page, vmin, vmax)
	if got, hit := ZoneScan(page, lo, hi); hit != (vmax < lo || vmin > hi) {
		t.Errorf("ZoneScan[%d,%d] hit = %v on a page with values [%d, %d]", lo, hi, hit, vmin, vmax)
	} else if hit && (want.Count != 0 || got != bounds) {
		t.Errorf("ZoneScan[%d,%d] = %+v on a page with %d matches, want %+v", lo, hi, got, want.Count, bounds)
	}

	var mask, wantMask PageMask
	refCollectMatches(page, lo, hi, func(slot int, _ uint64) { wantMask[slot/64] |= 1 << (slot % 64) })
	n := MatchMask(page, lo, hi, &mask)
	pop := 0
	for _, w := range mask {
		pop += bits.OnesCount64(w)
	}
	if mask != wantMask || n != want.Count || pop != want.Count {
		t.Errorf("MatchMask[%d,%d]: returned %d, popcount %d, want %d; mask equal: %v", lo, hi, n, pop, want.Count, mask == wantMask)
	}

	var got, ref [][2]uint64
	CollectMatches(page, lo, hi, func(slot int, v uint64) { got = append(got, [2]uint64{uint64(slot), v}) })
	refCollectMatches(page, lo, hi, func(slot int, v uint64) { ref = append(ref, [2]uint64{uint64(slot), v}) })
	if fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Errorf("CollectMatches[%d,%d] emitted %d matches, reference %d, or in another order", lo, hi, len(got), len(ref))
	}
}

// pageOf builds a page whose slots cycle through vals.
func pageOf(vals ...uint64) []byte {
	page := make([]byte, PageSize)
	for i := 0; i < ValuesPerPage; i++ {
		SetValueAt(page, i, vals[i%len(vals)])
	}
	return page
}

// lonePage builds a page of values on both sides of [100, 200] whose one
// value inside the range, 150, sits at slot.
func lonePage(slot int) []byte {
	page := pageOf(3, 7, 99, 201, 1<<62)
	SetValueAt(page, slot, 150)
	return page
}

// TestPageKernelsMatchReference walks the cases a branch-free compare
// gets wrong first: ranges touching either end of the domain, a range of
// one value, and pages holding the values next to each bound. The lone
// pages put their only match at the edges of ScanBounds' 64-slot chunks:
// first and last slot of the first chunk, first slot of the second, last
// slot of the last full chunk, and first and last slot of the partial
// chunk the page ends with.
func TestPageKernelsMatchReference(t *testing.T) {
	const top = math.MaxUint64
	ranges := [][2]uint64{
		{0, top}, {0, 0}, {top, top}, {0, 100}, {100, top},
		{100, 100}, {100, 200}, {1, top - 1}, {top - 1, top}, {0, 1},
		{1 << 63, 1<<63 + 5}, {1<<63 - 5, 1 << 63},
	}
	random := make([]uint64, ValuesPerPage)
	r := xrand.New(11)
	for i := range random {
		random[i] = r.Uint64()
	}
	pages := map[string][]byte{
		"edges":      pageOf(0, top, 99, 100, 101, 199, 200, 201, 1, top-1, 1<<63, 1<<63-1),
		"all zero":   pageOf(0),
		"all top":    pageOf(top),
		"all 150":    pageOf(150),
		"only below": pageOf(3, 7, 50),
		"only above": pageOf(top-3, top-7, 1<<62),
		"random":     pageOf(random...),
	}
	for _, slot := range []int{0, 63, 64, 447, 448, ValuesPerPage - 1} {
		pages[fmt.Sprintf("lone %d", slot)] = lonePage(slot)
	}
	for name, page := range pages {
		for _, q := range ranges {
			t.Run(fmt.Sprintf("%s/%d-%d", name, q[0], q[1]), func(t *testing.T) {
				checkKernels(t, page, q[0], q[1])
			})
		}
	}
}

// TestPageScanMergeMinMax: Merge keeps the extremes of the scans that
// had a match and ignores the Min/Max of one that had none.
func TestPageScanMergeMinMax(t *testing.T) {
	pages := [][]byte{pageOf(500, 10, 70), pageOf(1, 2, 3), pageOf(20, 90, 1000)}
	var serial PageScan
	for _, pg := range pages {
		serial.Merge(ScanAggregate(pg, 5, 600))
	}
	if serial.Min != 10 || serial.Max != 500 || serial.Count == 0 {
		t.Fatalf("merged %+v, want min 10 max 500", serial)
	}
	for _, order := range [][]int{{2, 1, 0}, {1, 0, 2}, {1, 2, 0}} {
		var m PageScan
		for _, i := range order {
			m.Merge(ScanAggregate(pages[i], 5, 600))
		}
		if m != serial {
			t.Fatalf("order %v: merged %+v != %+v", order, m, serial)
		}
	}
}

// FuzzPageKernels: any payload, any range — every kernel agrees with the
// three-way-branch reference.
func FuzzPageKernels(f *testing.F) {
	const top = math.MaxUint64
	edges := make([]byte, 0, 8*12)
	for _, v := range []uint64{0, top, 99, 100, 101, 199, 200, 201, 1, top - 1, 1 << 63, 1<<63 - 1} {
		edges = binary.LittleEndian.AppendUint64(edges, v)
	}
	for _, q := range [][2]uint64{{0, top}, {100, 100}, {100, 200}, {200, 100}, {0, 0}, {top, top}, {99, 201}, {102, 198}} {
		f.Add(edges, q[0], q[1])
	}
	f.Add([]byte{}, uint64(0), uint64(top))  // an all-zero page: all match
	f.Add([]byte{7}, uint64(8), uint64(top)) // no match: every value below
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint64(0), uint64(top-1))
	f.Fuzz(func(t *testing.T, payload []byte, lo, hi uint64) {
		if lo > hi {
			lo, hi = hi, lo // the engine's swap
		}
		page := make([]byte, PageSize)
		if len(payload) > 0 {
			for off := HeaderSize; off < PageSize; off += copy(page[off:], payload) {
			}
		}
		checkKernels(t, page, lo, hi)
	})
}

var kernelSink PageScan

// BenchmarkPageScanKernels times every kernel against the reference it
// replaced, at four in-page selectivities, on pages that stay in cache
// and on a 64 MiB buffer visited in random page order. "ref" is what a
// plain query paid per page, "ref+collect" what an Aggregate query paid
// per qualifying page, "bounds" what a query building a candidate pays:
// ScanBounds, then ScanCountSum on a page with a match. sel=0% is a range
// of one value, so every page is a miss, as nearly every page of a cold
// query's full-view scan is.
func BenchmarkPageScanKernels(b *testing.B) {
	const domain = 1 << 40
	kernels := []struct {
		name string
		scan func([]byte, uint64, uint64) PageScan
	}{
		{"ref", refScanFilter},
		{"ref+collect", refAggregate},
		{"countsum", ScanCountSum},
		{"aggregate", ScanAggregate},
		{"bounds", func(pg []byte, lo, hi uint64) PageScan {
			if s, miss := ScanBounds(pg, lo, hi); miss {
				return s
			}
			return ScanCountSum(pg, lo, hi)
		}},
		{"filter", ScanFilter},
		{"filter+collect", func(pg []byte, lo, hi uint64) PageScan {
			s := ScanFilter(pg, lo, hi)
			CollectMatches(pg, lo, hi, func(_ int, v uint64) { s.Max = max(s.Max, v) })
			return s
		}},
		{"mask", func(pg []byte, lo, hi uint64) PageScan {
			var m PageMask
			return PageScan{Count: MatchMask(pg, lo, hi, &m), Sum: m[0]}
		}},
	}
	for _, buf := range []struct {
		name  string
		pages int
	}{{"cached", 8}, {"64MiB", 64 << 20 / PageSize}} {
		r := xrand.New(5)
		mem := make([]byte, buf.pages*PageSize)
		order := make([][]byte, buf.pages)
		for i := range order {
			order[i] = mem[i*PageSize : (i+1)*PageSize]
			for s := 0; s < ValuesPerPage; s++ {
				SetValueAt(order[i], s, r.Uint64n(domain))
			}
		}
		for i := len(order) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, pct := range []uint64{0, 2, 18, 50} {
			lo := uint64(domain / 4)
			hi := lo + domain/100*pct
			for _, k := range kernels {
				b.Run(fmt.Sprintf("%s/sel=%d%%/%s", buf.name, pct, k.name), func(b *testing.B) {
					b.SetBytes(PageSize)
					for i := 0; i < b.N; i++ {
						kernelSink = k.scan(order[i%len(order)], lo, hi)
					}
				})
			}
		}
	}
}
