package vmsim

import (
	"encoding/binary"
	"slices"
	"testing"
)

// ptFuzzBase and ptFuzzSpan place the fuzzed VPNs in a window of five
// leaves that starts off a leaf boundary, so ranges straddle boundaries,
// cover whole leaves and land on leaves nothing was ever set in.
const (
	ptFuzzBase = 7<<ptLeafBits + 200
	ptFuzzSpan = 5 * ptLeafSize
)

// ptSet and ptClear encode one page-table operation as the five bytes
// FuzzPageTable decodes: the kind in the low bit with a set's run length
// above it, then two little-endian uint16 operands.
func ptSet(run int, vpn, frame uint16) []byte { return ptOp(byte(2*(run-1)), vpn, frame) }

func ptClear(lo, pages uint16) []byte { return ptOp(1, lo, pages) }

func ptOp(head byte, x, y uint16) []byte {
	b := binary.LittleEndian.AppendUint16([]byte{head}, x)
	return binary.LittleEndian.AppendUint16(b, y)
}

// FuzzPageTable runs byte-encoded sequences of set / clearRange against a
// map model and checks after every operation that get, the cleared count
// and the dropped frames agree with the model, that every leaf counts its
// live entries, and that empty leaves are reclaimed.
func FuzzPageTable(f *testing.F) {
	// leaf(k) is the operand that addresses the first VPN of the window's
	// k-th leaf boundary.
	leaf := func(k int) uint16 { return uint16(k*ptLeafSize - ptFuzzBase&ptLeafMask) }
	seeds := [][]byte{
		// lo == hi, and a range over a table with no leaves at all.
		slices.Concat(ptClear(10, 0), ptClear(0, ptFuzzSpan)),
		// Dense runs across the first boundary, then a straddling clear
		// and a one-page clear.
		slices.Concat(ptSet(128, 250, 1), ptSet(128, 378, 90), ptSet(128, 506, 200),
			ptClear(300, 300), ptClear(260, 1), ptClear(0, ptFuzzSpan)),
		// A whole leaf, exactly, beside a populated neighbour.
		slices.Concat(ptSet(128, leaf(1), 5), ptSet(128, leaf(1)+400, 7), ptSet(3, leaf(2), 9),
			ptClear(leaf(1), ptLeafSize), ptClear(leaf(2)-1, 2)),
		// Sparse entries in every leaf, cleared over absent leaves too.
		slices.Concat(ptSet(1, 3, 1), ptSet(1, leaf(2)+17, 2), ptSet(1, leaf(4)+511, 3),
			ptClear(leaf(1)+1, leaf(3)), ptClear(0, ptFuzzSpan)),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		pt := newPageTable()
		model := map[VPN]FrameID{}
		for step := 0; len(ops) >= 5 && step < 32; step++ {
			head := ops[0]
			x := VPN(binary.LittleEndian.Uint16(ops[1:]))
			y := binary.LittleEndian.Uint16(ops[3:])
			ops = ops[5:]
			vpn := ptFuzzBase + x%ptFuzzSpan
			if head&1 == 0 {
				for i := range VPN(1 + head>>1) {
					fr := FrameID(y) + FrameID(i)
					pt.set(vpn+i, fr)
					model[vpn+i] = fr
				}
			} else {
				hi := vpn + VPN(y)%(ptFuzzSpan+1)
				var want, got []FrameID
				for p := vpn; p < hi; p++ {
					if fr, ok := model[p]; ok {
						want = append(want, fr)
						delete(model, p)
					}
				}
				n := pt.clearRange(vpn, hi, func(fr FrameID) { got = append(got, fr) })
				if n != len(want) || !slices.Equal(got, want) {
					t.Fatalf("clearRange(%#x, %#x) = %d dropping %v, want %d dropping %v", vpn, hi, n, got, len(want), want)
				}
			}
			checkPageTable(t, &pt, model)
		}
	})
}

// checkPageTable holds pt against the model: get returns every model
// entry, no other entry is live, each leaf's count is its live entries,
// and exactly the leaves the model populates exist.
func checkPageTable(t *testing.T, pt *pageTable, model map[VPN]FrameID) {
	t.Helper()
	keys := map[VPN]bool{}
	for vpn, want := range model {
		if fr, ok := pt.get(vpn); !ok || fr != want {
			t.Fatalf("get(%#x) = %d, %v; the model has %d", vpn, fr, ok, want)
		}
		keys[vpn>>ptLeafBits] = true
	}
	if len(pt.leaves) != len(keys) {
		t.Fatalf("%d leaves, the model populates %d", len(pt.leaves), len(keys))
	}
	live := 0
	for key, leaf := range pt.leaves {
		n := 0
		for _, e := range leaf.entries {
			if e != 0 {
				n++
			}
		}
		if leaf.count != n {
			t.Fatalf("leaf %#x counts %d, holds %d", key, leaf.count, n)
		}
		live += n
	}
	// Every model entry is live (above), so equal totals leave no live
	// entry outside the model: get is absent everywhere else.
	if live != len(model) {
		t.Fatalf("%d live entries, the model has %d", live, len(model))
	}
}
