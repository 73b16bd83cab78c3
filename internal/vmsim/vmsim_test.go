package vmsim

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestFrameAllocZeroed(t *testing.T) {
	k := NewKernel(16)
	f, err := k.allocFrame()
	if err != nil {
		t.Fatal(err)
	}
	d := k.frameData(f)
	if len(d) != PageSize {
		t.Fatalf("frame size %d, want %d", len(d), PageSize)
	}
	d[0], d[PageSize-1] = 0xAA, 0xBB
	k.freeFrame(f)
	f2, err := k.allocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f {
		t.Fatalf("free list not reused: got frame %d, want %d", f2, f)
	}
	d2 := k.frameData(f2)
	if d2[0] != 0 || d2[PageSize-1] != 0 {
		t.Fatal("recycled frame not zeroed")
	}
}

func TestFrameLimit(t *testing.T) {
	k := NewKernel(2)
	if _, err := k.allocFrame(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.allocFrame(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.allocFrame(); err == nil {
		t.Fatal("expected ENOMEM past frame limit")
	}
	if got := k.FramesInUse(); got != 2 {
		t.Fatalf("FramesInUse = %d, want 2", got)
	}
}

func TestMemStats(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.allocFrame()
	k.freeFrame(f)
	_, _ = k.allocFrame()
	s := k.MemStats()
	if s.FramesAllocated != 2 || s.FramesFreed != 1 || s.FramesInUse != 1 {
		t.Fatalf("MemStats = %+v", s)
	}
}

func TestFileCreateOpenRemove(t *testing.T) {
	k := NewKernel(0)
	f, err := k.CreateFile("col", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.frames) != 4 {
		t.Fatalf("file has %d pages, want 4", len(f.frames))
	}
	if f.name != "col" || f.Inode() == 0 {
		t.Fatalf("name=%q Inode=%d", f.name, f.Inode())
	}
	if _, err := k.CreateFile("col", 1); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if g := k.files["col"]; g != f {
		t.Fatalf("kernel holds %p as col, want %p", g, f)
	}
	if err := k.RemoveFile("col"); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.files["col"]; ok {
		t.Fatal("file still listed after remove")
	}
	if err := k.RemoveFile("col"); err == nil {
		t.Fatal("double remove succeeded")
	}
	if k.FramesInUse() != 0 {
		t.Fatalf("FramesInUse = %d after remove, want 0", k.FramesInUse())
	}
}

func TestFileTruncate(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 2)
	d, err := f.PageData(1)
	if err != nil {
		t.Fatal(err)
	}
	d[0] = 7
	if err := f.Truncate(8); err != nil {
		t.Fatal(err)
	}
	if len(f.frames) != 8 {
		t.Fatalf("file has %d pages, want 8", len(f.frames))
	}
	d1, _ := f.PageData(1)
	if d1[0] != 7 {
		t.Fatal("grow lost existing data")
	}
	d7, _ := f.PageData(7)
	if d7[0] != 0 {
		t.Fatal("grown page not zeroed")
	}
	if err := f.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.PageData(1); err == nil {
		t.Fatal("read past EOF succeeded")
	}
	if err := f.Truncate(-1); err == nil {
		t.Fatal("negative truncate succeeded")
	}
}

func TestFileDataSharedAcrossMappings(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 2)
	as := k.NewAddressSpace()

	a1, err := as.MmapFile(f, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := as.MmapFile(f, 1, 1) // second mapping of page 1
	if err != nil {
		t.Fatal(err)
	}

	p1, err := as.PageData(VPN(a1>>PageShift) + 1)
	if err != nil {
		t.Fatal(err)
	}
	p1[10] = 42

	p2, err := as.PageData(VPN(a2 >> PageShift))
	if err != nil {
		t.Fatal(err)
	}
	if p2[10] != 42 {
		t.Fatal("write not visible through second mapping")
	}
	direct, _ := f.PageData(1)
	if direct[10] != 42 {
		t.Fatal("write not visible through file handle")
	}
}

func TestMmapAnonReservationIsLazy(t *testing.T) {
	k := NewKernel(0)
	as := k.NewAddressSpace()
	addr, err := as.MmapAnon(1000)
	if err != nil {
		t.Fatal(err)
	}
	if k.FramesInUse() != 0 {
		t.Fatalf("reservation allocated %d frames", k.FramesInUse())
	}
	// Touch one page: exactly one demand-zero fault.
	d, err := as.PageData(VPN(addr>>PageShift) + 500)
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 0 {
		t.Fatal("anon page not zeroed")
	}
	if k.FramesInUse() != 1 {
		t.Fatalf("FramesInUse = %d after one touch, want 1", k.FramesInUse())
	}
	if s := as.Stats(); s.MinorFaults != 1 {
		t.Fatalf("MinorFaults = %d, want 1", s.MinorFaults)
	}
}

func TestPageDataFaultsOutsideMappings(t *testing.T) {
	k := NewKernel(0)
	as := k.NewAddressSpace()
	if _, err := as.PageData(12345); err == nil {
		t.Fatal("expected fault on unmapped page")
	}
}

func TestMmapFileFixedRewire(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("col", 8)
	for i := 0; i < 8; i++ {
		d, _ := f.PageData(i)
		d[0] = byte(i + 1)
	}
	as := k.NewAddressSpace()
	addr, err := as.MmapAnon(4)
	if err != nil {
		t.Fatal(err)
	}
	// Rewire virtual pages 0..3 of the view to file pages 7,5,3,1.
	for i, fp := range []int{7, 5, 3, 1} {
		if err := as.MmapFileFixed(addr+Addr(i*PageSize), f, fp, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []byte{8, 6, 4, 2} {
		d, err := as.PageData(VPN(addr>>PageShift) + VPN(i))
		if err != nil {
			t.Fatal(err)
		}
		if d[0] != want {
			t.Fatalf("view page %d reads %d, want %d", i, d[0], want)
		}
	}
	// Re-rewire page 0 to file page 0 — the "update mapping freely at
	// runtime" property.
	if err := as.MmapFileFixed(addr, f, 0, 1); err != nil {
		t.Fatal(err)
	}
	d, _ := as.PageData(VPN(addr >> PageShift))
	if d[0] != 1 {
		t.Fatalf("after re-rewire, page reads %d, want 1", d[0])
	}
}

func TestMmapFixedOverlapSplitsVMA(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 1)
	as := k.NewAddressSpace()
	addr, _ := as.MmapAnon(10)
	base := VPN(addr >> PageShift)

	if as.VMACount() != 1 {
		t.Fatalf("VMACount = %d, want 1", as.VMACount())
	}
	// Punch a file mapping into the middle: anon VMA must split in two.
	if err := as.MmapFileFixed(addr+5*PageSize, f, 0, 1); err != nil {
		t.Fatal(err)
	}
	if as.VMACount() != 3 {
		t.Fatalf("VMACount = %d after split, want 3", as.VMACount())
	}
	var got []string
	as.EachVMA(func(v VMA) bool {
		got = append(got, fmt.Sprintf("%d-%d anon=%v", v.start-base, v.end-base, v.file == nil))
		return true
	})
	want := []string{"0-5 anon=true", "5-6 anon=false", "6-10 anon=true"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("VMA layout %v, want %v", got, want)
		}
	}
	if s := as.Stats(); s.VMASplits != 1 {
		t.Fatalf("VMASplits = %d, want 1", s.VMASplits)
	}
}

func TestMmapFixedMergesConsecutive(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 16)
	as := k.NewAddressSpace()
	addr, _ := as.MmapAnon(16)

	// Map file pages 0..7 one call each at consecutive virtual pages: the
	// file-backed VMAs must merge into a single one.
	for i := 0; i < 8; i++ {
		if err := as.MmapFileFixed(addr+Addr(i*PageSize), f, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Expect: one merged file VMA (pages 0-8) + anon tail (8-16).
	if as.VMACount() != 2 {
		t.Fatalf("VMACount = %d, want 2 (merged)", as.VMACount())
	}
	if s := as.Stats(); s.VMAMerges != 7 {
		t.Fatalf("VMAMerges = %d, want 7", s.VMAMerges)
	}

	// Non-contiguous file pages must NOT merge.
	as2 := k.NewAddressSpace()
	addr2, _ := as2.MmapAnon(16)
	for i := 0; i < 8; i++ {
		if err := as2.MmapFileFixed(addr2+Addr(i*PageSize), f, 15-i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if as2.VMACount() != 9 { // 8 file VMAs + anon tail
		t.Fatalf("VMACount = %d, want 9 (no merge)", as2.VMACount())
	}
}

func TestMunmap(t *testing.T) {
	k := NewKernel(0)
	as := k.NewAddressSpace()
	addr, _ := as.MmapAnon(10)
	base := VPN(addr >> PageShift)

	// Touch pages so frames exist, then unmap the middle.
	for i := 0; i < 10; i++ {
		if _, err := as.PageData(base + VPN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if k.FramesInUse() != 10 {
		t.Fatalf("FramesInUse = %d", k.FramesInUse())
	}
	if err := as.MunmapPages(addr+2*PageSize, 6); err != nil {
		t.Fatal(err)
	}
	if as.VMACount() != 2 {
		t.Fatalf("VMACount = %d, want 2", as.VMACount())
	}
	if k.FramesInUse() != 4 {
		t.Fatalf("FramesInUse = %d after unmap, want 4", k.FramesInUse())
	}
	if _, err := as.PageData(base + 5); err == nil {
		t.Fatal("read of unmapped page succeeded")
	}
	// Unmapping a hole is a no-op like Linux.
	if err := as.MunmapPages(addr+2*PageSize, 6); err != nil {
		t.Fatal(err)
	}
	// Unmap everything.
	if err := as.MunmapPages(addr, 10); err != nil {
		t.Fatal(err)
	}
	if as.VMACount() != 0 || k.FramesInUse() != 0 {
		t.Fatalf("VMACount=%d FramesInUse=%d, want 0/0", as.VMACount(), k.FramesInUse())
	}
}

func TestMaxMapCount(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 64)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(6)
	addr, err := as.MmapAnon(64)
	if err != nil {
		t.Fatal(err)
	}
	// Scattered single-page mappings blow through a small limit.
	var lastErr error
	for i := 0; i < 32; i++ {
		lastErr = as.MmapFileFixed(addr+Addr(2*i*PageSize), f, 2*i, 1)
		if lastErr != nil {
			break
		}
	}
	if lastErr == nil {
		t.Fatal("expected ENOMEM from max_map_count")
	}
	// Raising the limit unblocks, as the paper does via sysctl.
	as.SetMaxMapCount(1 << 20)
	if err := as.MmapFileFixed(addr+62*PageSize, f, 62, 1); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidArgs(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 4)
	as := k.NewAddressSpace()
	if _, err := as.MmapAnon(0); err == nil {
		t.Error("MmapAnon(0) succeeded")
	}
	if _, err := as.MmapFile(nil, 0, 1); err == nil {
		t.Error("MmapFile(nil) succeeded")
	}
	if _, err := as.MmapFile(f, 2, 3); err == nil {
		t.Error("MmapFile beyond EOF succeeded")
	}
	if err := as.MmapFileFixed(123, f, 0, 1); err == nil {
		t.Error("unaligned MmapFileFixed succeeded")
	}
	addr, _ := as.MmapAnon(4)
	if err := as.MmapFileFixed(addr, f, 3, 2); err == nil {
		t.Error("MmapFileFixed beyond EOF succeeded")
	}
	if err := as.MunmapPages(addr+1, 1); err == nil {
		t.Error("unaligned Munmap succeeded")
	}
	if _, err := k.CreateFile("g", -1); err == nil {
		t.Error("negative-size CreateFile succeeded")
	}
}

func TestRenderMapsFormat(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("db", 8)
	as := k.NewAddressSpace()
	addr, _ := as.MmapAnon(4)
	if err := as.MmapFileFixed(addr, f, 2, 2); err != nil {
		t.Fatal(err)
	}
	out := string(as.RenderMaps())
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out)
	}
	// First line: the file-backed area at offset 2 pages.
	if !strings.Contains(lines[0], "rw-s") ||
		!strings.Contains(lines[0], "/dev/shm/db") ||
		!strings.Contains(lines[0], fmt.Sprintf("%08x", 2*PageSize)) {
		t.Errorf("file line malformed: %q", lines[0])
	}
	// Second line: the anonymous remainder.
	if !strings.Contains(lines[1], "rw-p") || strings.Contains(lines[1], "/dev/shm") {
		t.Errorf("anon line malformed: %q", lines[1])
	}
	for _, ln := range lines {
		var lo, hi uint64
		if _, err := fmt.Sscanf(ln, "%x-%x", &lo, &hi); err != nil || lo >= hi {
			t.Errorf("bad address range in %q", ln)
		}
	}
}

func TestRenderMapsLineCountTracksVMAs(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("db", 64)
	as := k.NewAddressSpace()
	addr, _ := as.MmapAnon(64)
	// Scattered: every second file page → no merges.
	for i := 0; i < 16; i++ {
		if err := as.MmapFileFixed(addr+Addr(i*PageSize), f, 2*i, 1); err != nil {
			t.Fatal(err)
		}
	}
	scattered := strings.Count(string(as.RenderMaps()), "\n")

	as2 := k.NewAddressSpace()
	addr2, _ := as2.MmapAnon(64)
	for i := 0; i < 16; i++ {
		if err := as2.MmapFileFixed(addr2+Addr(i*PageSize), f, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	clustered := strings.Count(string(as2.RenderMaps()), "\n")
	if clustered >= scattered {
		t.Fatalf("clustered maps file (%d lines) not shorter than scattered (%d)", clustered, scattered)
	}
	if clustered != 2 { // merged file VMA + anon tail
		t.Fatalf("clustered lines = %d, want 2", clustered)
	}
}

func TestStatsCounting(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 8)
	as := k.NewAddressSpace()
	addr, _ := as.MmapAnon(8)
	_ = as.MmapFileFixed(addr, f, 0, 4)
	_ = as.MunmapPages(addr, 2)
	s := as.Stats()
	if s.MmapCalls != 2 {
		t.Errorf("MmapCalls = %d, want 2", s.MmapCalls)
	}
	if s.MunmapCalls != 1 {
		t.Errorf("MunmapCalls = %d, want 1", s.MunmapCalls)
	}
	if s.PagesMapped != 12 {
		t.Errorf("PagesMapped = %d, want 12", s.PagesMapped)
	}
	if s.PagesUnmapped < 6 { // 4 anon by FIXED overlap + 2 by munmap
		t.Errorf("PagesUnmapped = %d, want >= 6", s.PagesUnmapped)
	}
}

// checkInvariants verifies the structural invariants the whole layer rests
// on: VMAs sorted, non-overlapping, non-empty, within the address space;
// every file-backed page present in the page table with the right frame;
// and the conservation laws of checkConservation.
func checkInvariants(t *testing.T, as *AddressSpace) {
	t.Helper()
	var prevEnd VPN
	var vmas []VMA
	as.EachVMA(func(v VMA) bool { vmas = append(vmas, v); return true })
	for i, v := range vmas {
		if v.start >= v.end {
			t.Fatalf("VMA %d empty: [%d,%d)", i, v.start, v.end)
		}
		if v.start < prevEnd {
			t.Fatalf("VMA %d overlaps predecessor (start %d < prev end %d)", i, v.start, prevEnd)
		}
		if v.end > addrSpaceTop {
			t.Fatalf("VMA %d beyond address space", i)
		}
		prevEnd = v.end
		if v.file != nil {
			for p := v.start; p < v.end; p++ {
				as.mu.RLock()
				fr, ok := as.pt.get(p)
				as.mu.RUnlock()
				if !ok {
					t.Fatalf("file-backed page %#x missing from page table", p)
				}
				want, err := v.file.frame(v.filePage + int(p-v.start))
				if err != nil || fr != want {
					t.Fatalf("page %#x maps frame %d, want %d (err %v)", p, fr, want, err)
				}
			}
		}
	}
	// Adjacent VMAs must not be mergeable (canonical form).
	for i := 1; i < len(vmas); i++ {
		a, b := vmas[i-1], vmas[i]
		if a.end == b.start && mergeable(&a, &b) {
			t.Fatalf("adjacent VMAs %d,%d are mergeable but unmerged", i-1, i)
		}
	}
	checkConservation(t, as)
}

// checkConservation checks that page-table entries, file refcounts and
// frames balance: no entry lies outside a VMA, each leaf counts its live
// entries and none is empty, each file's mapRefs equals the entries that
// map it, and the anonymous entries are exactly the demand-zero frames in
// use. It assumes as is the only address space of its kernel and that no
// frame displaced by File.ReplacePageFrame is outstanding.
func checkConservation(t *testing.T, as *AddressSpace) {
	t.Helper()
	anon, refs := 0, map[*File]int{}
	func() {
		as.mu.RLock()
		defer as.mu.RUnlock()
		for key, leaf := range as.pt.leaves {
			live := 0
			for i, e := range leaf.entries {
				if e == 0 {
					continue
				}
				live++
				vpn := key<<ptLeafBits | VPN(i)
				switch v := as.vmas.containing(vpn); {
				case v == nil:
					t.Fatalf("page-table entry at %#x lies outside every VMA", vpn)
				case v.file == nil:
					anon++
				default:
					refs[v.file]++
				}
			}
			if live == 0 || live != leaf.count {
				t.Fatalf("leaf %#x counts %d, holds %d live entries", key, leaf.count, live)
			}
		}
	}()
	k := as.kernel
	k.mu.Lock()
	files := make([]*File, 0, len(k.files))
	for _, f := range k.files {
		files = append(files, f)
	}
	k.mu.Unlock()
	filePages := 0
	for _, f := range files {
		if got := f.MappedPages(); got != refs[f] {
			t.Fatalf("file %q: mapRefs %d, page table maps it %d times", f.name, got, refs[f])
		}
		filePages += len(f.frames)
	}
	if demand := k.FramesInUse() - filePages; demand != anon {
		t.Fatalf("%d demand-zero frames in use, %d anonymous page-table entries", demand, anon)
	}
}

// TestRandomizedOps drives a random mix of mmap/munmap/rewire operations
// and demand-zero faults over a region of several page-table leaves whose
// start is not leaf-aligned, and checks full invariants after each step —
// the workhorse test for overlap resolution and for the leaf-wise unmap.
// Every few hundred steps the whole region is unmapped, which must return
// every demand-zero frame, and a fresh one is reserved.
func TestRandomizedOps(t *testing.T) {
	const pages = 3*ptLeafSize + 171
	k := NewKernel(0)
	f, _ := k.CreateFile("f", pages)
	framesBefore := k.FramesInUse()
	as := k.NewAddressSpace()
	// A pad before the region puts its start off a leaf boundary.
	pad, err := as.MmapAnon(37)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := as.MmapAnon(pages)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.MunmapPages(pad, 37); err != nil {
		t.Fatal(err)
	}
	release := func(step int) {
		if err := as.MunmapPages(addr, pages); err != nil {
			t.Fatalf("step %d: Munmap: %v", step, err)
		}
		checkInvariants(t, as)
		if got := k.FramesInUse(); got != framesBefore {
			t.Fatalf("step %d: %d frames in use after a full unmap, %d before", step, got, framesBefore)
		}
		if len(as.pt.leaves) != 0 || f.MappedPages() != 0 {
			t.Fatalf("step %d: %d leaves, %d file pages mapped after a full unmap", step, len(as.pt.leaves), f.MappedPages())
		}
	}
	// fault touches [va, va+n): pages inside a VMA must succeed (anonymous
	// ones take a demand-zero frame), the rest must fault.
	fault := func(step int, va Addr, n int) {
		for p := VPN(va >> PageShift); p < VPN(va>>PageShift)+VPN(n); p++ {
			as.mu.RLock()
			mapped := as.vmas.containing(p) != nil
			as.mu.RUnlock()
			if _, err := as.PageData(p); (err == nil) != mapped {
				t.Fatalf("step %d: PageData(%#x) = %v, mapped %v", step, p, err, mapped)
			}
		}
	}
	rng := newTestRand(12345)
	for step := 0; step < 3000; step++ {
		off := rng.Intn(pages)
		n := 1 + rng.Intn(pages-off)
		va := addr + Addr(rng.Intn(pages-n+1))*PageSize
		fp := rng.Intn(pages - n + 1)
		switch rng.Intn(6) {
		case 0, 1:
			if err := as.MmapFileFixed(va, f, fp, n); err != nil {
				t.Fatalf("step %d: MmapFileFixed: %v", step, err)
			}
		case 2:
			if err := as.MunmapPages(va, n); err != nil {
				t.Fatalf("step %d: Munmap: %v", step, err)
			}
		case 3:
			fault(step, va, min(n, 64))
		case 4:
			// MAP_FIXED over pages that have just faulted.
			fault(step, va, n)
			m := 1 + rng.Intn(n)
			if err := as.MmapFileFixed(va+Addr(rng.Intn(n-m+1))*PageSize, f, fp, m); err != nil {
				t.Fatalf("step %d: MmapFileFixed: %v", step, err)
			}
		case 5:
			if rng.Intn(40) == 0 {
				release(step)
				if addr, err = as.MmapAnon(pages); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkInvariants(t, as)
	}
	release(3000)
}

func TestConcurrentMapAndRead(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 512)
	for i := 0; i < 512; i++ {
		d, _ := f.PageData(i)
		d[0] = byte(i)
	}
	as := k.NewAddressSpace()
	viewAddr, _ := as.MmapAnon(512)
	fullAddr, err := as.MmapFile(f, 0, 512)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	// Mapper goroutine: rewires view pages while the reader scans the full
	// view — the §2.3 concurrent-mapping pattern.
	go func() {
		defer wg.Done()
		for i := 0; i < 512; i++ {
			if err := as.MmapFileFixed(viewAddr+Addr(i*PageSize), f, i, 1); err != nil {
				t.Errorf("map: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for round := 0; round < 20; round++ {
			for i := 0; i < 512; i++ {
				d, err := as.PageData(VPN(fullAddr>>PageShift) + VPN(i))
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if d[0] != byte(i) {
					t.Errorf("page %d reads %d", i, d[0])
					return
				}
			}
		}
	}()
	wg.Wait()
	checkInvariants(t, as)
}

// newTestRand avoids importing math/rand in package tests that also need
// determinism across Go versions.
type testRand struct{ s uint64 }

func newTestRand(seed uint64) *testRand { return &testRand{s: seed} }
func (r *testRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
func (r *testRand) Intn(n int) int { return int(r.next() % uint64(n)) }

func BenchmarkMmapFixedSinglePages(b *testing.B) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 4096)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1 << 30)
	addr, _ := as.MmapAnon(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % 2048
		_ = as.MmapFileFixed(addr+Addr(2*p*PageSize), f, 2*p, 1)
	}
}

func BenchmarkMmapFixedRuns(b *testing.B) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 4096)
	as := k.NewAddressSpace()
	addr, _ := as.MmapAnon(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = as.MmapFileFixed(addr, f, 0, 4096)
	}
}

// BenchmarkMunmapReservation reserves a column-sized anonymous region and
// releases it — a discarded candidate view's life at this layer — once
// empty and once with 1 % of its pages, one in every hundred, rewired to
// file pages, which populates every page-table leaf under it. The rewiring
// is untimed. An unmap walks the page table by leaf, so an empty release
// costs next to nothing at any size.
func BenchmarkMunmapReservation(b *testing.B) {
	for _, pages := range []int{8192, 16384, 65536} {
		for _, mapped := range []int{0, pages / 100} {
			name := fmt.Sprintf("pages=%d/empty", pages)
			if mapped > 0 {
				name = fmt.Sprintf("pages=%d/file1pct", pages)
			}
			b.Run(name, func(b *testing.B) {
				k := NewKernel(0)
				f, err := k.CreateFile("f", mapped)
				if err != nil {
					b.Fatal(err)
				}
				as := k.NewAddressSpace()
				as.SetMaxMapCount(1 << 30)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					addr, err := as.MmapAnon(pages)
					if err != nil {
						b.Fatal(err)
					}
					if mapped > 0 {
						b.StopTimer()
						for p := 0; p < mapped; p++ {
							if err := as.MmapFileFixed(addr+Addr(100*p+50)*PageSize, f, p, 1); err != nil {
								b.Fatal(err)
							}
						}
						b.StartTimer()
					}
					if err := as.MunmapPages(addr, pages); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkPageData(b *testing.B) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 1024)
	as := k.NewAddressSpace()
	addr, _ := as.MmapFile(f, 0, 1024)
	base := VPN(addr >> PageShift)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := as.PageData(base + VPN(i&1023)); err != nil {
			b.Fatal(err)
		}
	}
}
