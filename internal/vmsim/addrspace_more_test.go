package vmsim

import (
	"sync"
	"testing"
)

func TestFileMapRefcount(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 16)
	as := k.NewAddressSpace()

	if f.MappedPages() != 0 {
		t.Fatalf("fresh file has %d mapped pages", f.MappedPages())
	}
	addr, err := as.MmapFile(f, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.MappedPages() != 8 {
		t.Fatalf("MappedPages = %d, want 8", f.MappedPages())
	}
	// A second mapping of overlapping file pages counts again.
	addr2, err := as.MmapFile(f, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f.MappedPages() != 12 {
		t.Fatalf("MappedPages = %d, want 12", f.MappedPages())
	}
	// MAP_FIXED replacing part of a file mapping adjusts both sides.
	if err := as.MmapFileFixed(addr, f, 10, 2); err != nil {
		t.Fatal(err)
	}
	if f.MappedPages() != 12 { // -2 cleared, +2 mapped
		t.Fatalf("MappedPages = %d after rewire, want 12", f.MappedPages())
	}
	if err := as.MunmapPages(addr, 8); err != nil {
		t.Fatal(err)
	}
	if err := as.MunmapPages(addr2, 4); err != nil {
		t.Fatal(err)
	}
	if f.MappedPages() != 0 {
		t.Fatalf("MappedPages = %d after unmap, want 0", f.MappedPages())
	}
}

func TestRemoveFileWhileMappedRejected(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 4)
	as := k.NewAddressSpace()
	addr, _ := as.MmapFile(f, 0, 4)
	if err := k.RemoveFile("f"); err == nil {
		t.Fatal("RemoveFile succeeded with live mappings")
	}
	if err := as.MunmapPages(addr, 4); err != nil {
		t.Fatal(err)
	}
	if err := k.RemoveFile("f"); err != nil {
		t.Fatalf("RemoveFile after unmap: %v", err)
	}
}

func TestTruncateShrinkWhileMappedRejected(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 8)
	as := k.NewAddressSpace()
	addr, _ := as.MmapFile(f, 0, 8)
	if err := f.Truncate(4); err == nil {
		t.Fatal("shrink succeeded with live mappings")
	}
	// Growing is always fine.
	if err := f.Truncate(16); err != nil {
		t.Fatal(err)
	}
	_ = as.MunmapPages(addr, 8)
	if err := f.Truncate(4); err != nil {
		t.Fatalf("shrink after unmap: %v", err)
	}
}

func TestFindGapFallbackAfterHintExhaustion(t *testing.T) {
	k := NewKernel(0)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1 << 20)

	// The hint window between mmapBase and the address-space top holds
	// exactly addrSpaceTop-mmapBase pages. Exhaust it with two large
	// anonymous reservations (reservations are free — no frames).
	total := int(addrSpaceTop - mmapBase)
	a1, err := as.MmapAnon(total / 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.MmapAnon(total - total/2); err != nil {
		t.Fatal(err)
	}
	// Everything is taken: any further mapping must fail.
	if _, err := as.MmapAnon(1); err == nil {
		t.Fatal("mapping succeeded in a full address space")
	}
	// Free the first half; the hint is far past it, so only the first-fit
	// fallback can find the hole.
	if err := as.MunmapPages(a1, total/2); err != nil {
		t.Fatal(err)
	}
	got, err := as.MmapAnon(128)
	if err != nil {
		t.Fatalf("fallback gap search failed: %v", err)
	}
	if got != a1 {
		t.Fatalf("fallback mapped at %#x, want reuse of %#x", got, a1)
	}
}

func TestConcurrentDemandZeroFaultSingleFrame(t *testing.T) {
	k := NewKernel(0)
	as := k.NewAddressSpace()
	addr, err := as.MmapAnon(1)
	if err != nil {
		t.Fatal(err)
	}
	vpn := VPN(addr >> PageShift)

	const goroutines = 16
	var wg sync.WaitGroup
	ptrs := make([][]byte, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := as.PageData(vpn)
			if err != nil {
				t.Errorf("fault: %v", err)
				return
			}
			ptrs[i] = d
		}(i)
	}
	wg.Wait()
	if k.FramesInUse() != 1 {
		t.Fatalf("FramesInUse = %d, want 1 (double demand-zero allocation)", k.FramesInUse())
	}
	for i := 1; i < goroutines; i++ {
		if &ptrs[i][0] != &ptrs[0][0] {
			t.Fatal("goroutines observed different frames for the same page")
		}
	}
}

func TestEachVMAEarlyStop(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 8)
	as := k.NewAddressSpace()
	addr, _ := as.MmapAnon(8)
	_ = as.MmapFileFixed(addr, f, 0, 1)
	_ = as.MmapFileFixed(addr+4*PageSize, f, 4, 1)

	seen := 0
	as.EachVMA(func(VMA) bool {
		seen++
		return false
	})
	if seen != 1 {
		t.Fatalf("EachVMA visited %d VMAs after stop, want 1", seen)
	}
}

func TestPermString(t *testing.T) {
	cases := []struct {
		p    Perm
		want string
	}{
		{PermRWShared, "rw-s"},
		{PermRWPrivate, "rw-p"},
		{Perm{Read: true}, "r--p"},
		{Perm{Exec: true, Shared: true}, "--xs"},
		{Perm{}, "---p"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("Perm%+v.String() = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestVMAAccessors(t *testing.T) {
	k := NewKernel(0)
	f, _ := k.CreateFile("f", 4)
	as := k.NewAddressSpace()
	addr, _ := as.MmapFile(f, 1, 3)
	var got VMA
	as.EachVMA(func(v VMA) bool { got = v; return false })
	if got.Start() != addr || got.End() != addr+3*PageSize {
		t.Fatalf("Start/End = %#x/%#x", got.Start(), got.End())
	}
	if got.Pages() != 3 || got.file != f {
		t.Fatalf("Pages=%d file=%v", got.Pages(), got.file)
	}
}
