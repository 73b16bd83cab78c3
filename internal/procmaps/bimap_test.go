package procmaps

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestBimapAddLookup(t *testing.T) {
	b := NewBimap()
	b.Add(100, 5)
	b.Add(101, 7)
	b.Add(200, 5) // second view maps the same file page

	if fp, ok := b.filePage(100); !ok || fp != 5 {
		t.Fatalf("filePage(100) = %d,%v", fp, ok)
	}
	if _, ok := b.filePage(999); ok {
		t.Fatal("filePage(999) found")
	}
	vs := b.virtualPages(5)
	if len(vs) != 2 {
		t.Fatalf("virtualPages(5) = %v, want two entries", vs)
	}
	if b.size() != 3 {
		t.Fatalf("Len = %d, want 3", b.size())
	}
}

func TestBimapAddReplaces(t *testing.T) {
	b := NewBimap()
	b.Add(100, 5)
	b.Add(100, 9) // rewire: vpn 100 now maps file page 9
	if fp, _ := b.filePage(100); fp != 9 {
		t.Fatalf("filePage(100) = %d, want 9", fp)
	}
	if vs := b.virtualPages(5); len(vs) != 0 {
		t.Fatalf("stale reverse entry: %v", vs)
	}
	if vs := b.virtualPages(9); len(vs) != 1 || vs[0] != 100 {
		t.Fatalf("virtualPages(9) = %v", vs)
	}
}

func TestBimapRemove(t *testing.T) {
	b := NewBimap()
	b.Add(1, 10)
	b.Add(2, 10)
	if !b.Remove(1) {
		t.Fatal("Remove(1) failed")
	}
	if b.Remove(1) {
		t.Fatal("double Remove succeeded")
	}
	if vs := b.virtualPages(10); len(vs) != 1 || vs[0] != 2 {
		t.Fatalf("virtualPages(10) = %v", vs)
	}
	if b.size() != 1 {
		t.Fatalf("Len = %d", b.size())
	}
}

func TestBimapMappedIn(t *testing.T) {
	b := NewBimap()
	b.Add(100, 5)
	b.Add(200, 5)
	if v, ok := b.MappedIn(5, 150, 250); !ok || v != 200 {
		t.Fatalf("MappedIn = %d,%v, want 200,true", v, ok)
	}
	if _, ok := b.MappedIn(5, 300, 400); ok {
		t.Fatal("MappedIn matched outside range")
	}
	if _, ok := b.MappedIn(6, 0, 1<<40); ok {
		t.Fatal("MappedIn matched absent file page")
	}
}

func TestBuildBimapFiltersInode(t *testing.T) {
	mappings := []Mapping{
		{Start: 0x1000, End: 0x3000, Inode: 7, Offset: 0x4000}, // 2 pages of inode 7
		{Start: 0x5000, End: 0x6000, Inode: 9, Offset: 0},      // different file
		{Start: 0x8000, End: 0x9000, Inode: 0},                 // anonymous
	}
	b := BuildBimap(mappings, 7, 4096)
	if b.size() != 2 {
		t.Fatalf("Len = %d, want 2", b.size())
	}
	if fp, ok := b.filePage(1); !ok || fp != 4 {
		t.Fatalf("filePage(vpn 1) = %d,%v, want 4", fp, ok)
	}
	if fp, ok := b.filePage(2); !ok || fp != 5 {
		t.Fatalf("filePage(vpn 2) = %d,%v, want 5", fp, ok)
	}
	if _, ok := b.filePage(5); ok {
		t.Fatal("inode 9 leaked into bimap")
	}
}

// Property: after arbitrary Add/Remove sequences the two directions agree.
func TestQuickBimapConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		b := NewBimap()
		ref := map[uint64]int64{}
		for _, op := range ops {
			vpn := uint64(op % 64)
			fp := int64(op / 64 % 16)
			if op&0x8000 != 0 {
				b.Remove(vpn)
				delete(ref, vpn)
			} else {
				b.Add(vpn, fp)
				ref[vpn] = fp
			}
		}
		if b.size() != len(ref) {
			return false
		}
		// Forward agrees with reference.
		for vpn, fp := range ref {
			if got, ok := b.filePage(vpn); !ok || got != fp {
				return false
			}
		}
		// Reverse lists exactly the forward entries.
		seen := 0
		for fp := int64(0); fp < 16; fp++ {
			for _, vpn := range b.virtualPages(fp) {
				if ref[vpn] != fp {
					return false
				}
				seen++
			}
		}
		return seen == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestBimapConcurrentPerViewWorkers models parallel update alignment:
// each worker owns a disjoint virtual-page range (its "view") but all
// workers map and unmap the same shared file pages. Per-VPN operations
// are serialized per worker (the bimap's contract); the shard locks must
// keep the reverse lists consistent and MappedIn answers correct for
// each worker's own range throughout.
func TestBimapConcurrentPerViewWorkers(t *testing.T) {
	const (
		workers   = 4
		perView   = 400
		filePages = 64
	)
	b := NewBimap()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w * 10_000)
			hi := base + perView
			for i := 0; i < perView; i++ {
				vpn := base + uint64(i)
				fp := int64(i % filePages)
				b.Add(vpn, fp)
				// Several of this worker's pages may map fp; MappedIn
				// must report one of them, inside the worker's range.
				got, ok := b.MappedIn(fp, base, hi)
				if !ok || got < base || got >= hi {
					t.Errorf("worker %d: MappedIn(%d) = %d,%v after Add(%d)", w, fp, got, ok, vpn)
					return
				}
				if mapped, ok := b.filePage(got); !ok || mapped != fp {
					t.Errorf("worker %d: MappedIn(%d) returned vpn %d mapping %d,%v", w, fp, got, mapped, ok)
					return
				}
			}
			// Rewire a third, remove a third.
			for i := 0; i < perView; i += 3 {
				b.Add(base+uint64(i), int64((i+1)%filePages))
			}
			for i := 1; i < perView; i += 3 {
				if !b.Remove(base + uint64(i)) {
					t.Errorf("worker %d: Remove(%d) failed", w, base+uint64(i))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Sequential consistency check against a per-worker reference.
	want := 0
	for w := 0; w < workers; w++ {
		base := uint64(w * 10_000)
		for i := 0; i < perView; i++ {
			vpn := base + uint64(i)
			switch {
			case i%3 == 1: // removed
				if _, ok := b.filePage(vpn); ok {
					t.Fatalf("removed vpn %d still mapped", vpn)
				}
			case i%3 == 0: // rewired
				want++
				if fp, ok := b.filePage(vpn); !ok || fp != int64((i+1)%filePages) {
					t.Fatalf("rewired vpn %d -> %d,%v", vpn, fp, ok)
				}
			default:
				want++
				if fp, ok := b.filePage(vpn); !ok || fp != int64(i%filePages) {
					t.Fatalf("vpn %d -> %d,%v", vpn, fp, ok)
				}
			}
		}
	}
	if b.size() != want {
		t.Fatalf("Len = %d, want %d", b.size(), want)
	}
	// Reverse direction agrees with forward.
	seen := 0
	for fp := int64(0); fp < filePages; fp++ {
		for _, vpn := range b.virtualPages(fp) {
			if got, ok := b.filePage(vpn); !ok || got != fp {
				t.Fatalf("reverse entry %d -> %d disagrees with forward (%d,%v)", fp, vpn, got, ok)
			}
			seen++
		}
	}
	if seen != want {
		t.Fatalf("reverse lists hold %d entries, want %d", seen, want)
	}
}

// filePage, virtualPages and size read the bimap's two directions
// directly: update alignment asks only MappedIn, the tests check both.
func (b *Bimap) filePage(vpn uint64) (int64, bool) {
	vs := b.vshard(vpn)
	vs.mu.Lock()
	defer vs.mu.Unlock()
	fp, ok := vs.m[vpn]
	return fp, ok
}

func (b *Bimap) virtualPages(fp int64) []uint64 {
	ps := b.pshard(fp)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return slices.Clone(ps.m[fp])
}

func (b *Bimap) size() int {
	n := 0
	for i := range b.v2p {
		vs := &b.v2p[i]
		vs.mu.Lock()
		n += len(vs.m)
		vs.mu.Unlock()
	}
	return n
}
