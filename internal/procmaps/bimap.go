package procmaps

import "sync"

// bimapShards is the lock-shard count of both bimap directions. Sixteen
// power-of-two shards keep the masked index cheap and make contention
// between concurrent users of one bimap unlikely.
const bimapShards = 16

// Bimap is a page-wise bidirectional map between virtual pages and file
// (physical) pages of a single backing file — the stand-in for the Boost
// bimap of §2.5. The forward direction (virtual → file page) is unique;
// the reverse direction is multi-valued because several partial views may
// map the same physical page.
//
// The bimap is built once from a parsed maps file before an update batch
// and then "maintained from user-space during the update process": Add and
// Remove keep both directions consistent while pages are rewired.
//
// Concurrency: both directions are lock-sharded (virtual pages by VPN,
// file pages by page number), so callers working on different views may
// mutate and read the bimap concurrently. Like per-region translation
// state in general, per-view entries are naturally independent: a
// virtual page belongs to exactly one view, so callers must serialize
// operations on the same VPN externally, while reverse-direction reads
// (MappedIn) and cross-view list updates are kept consistent by the
// file-page shard locks.
type Bimap struct {
	v2p [bimapShards]vpnShard
	p2v [bimapShards]fpShard
}

type vpnShard struct {
	mu sync.Mutex
	m  map[uint64]int64 // virtual page number -> file page
}

type fpShard struct {
	mu sync.Mutex
	m  map[int64][]uint64 // file page -> virtual page numbers
}

// NewBimap returns an empty bimap.
func NewBimap() *Bimap {
	b := &Bimap{}
	for i := range b.v2p {
		b.v2p[i].m = make(map[uint64]int64)
	}
	for i := range b.p2v {
		b.p2v[i].m = make(map[int64][]uint64)
	}
	return b
}

func (b *Bimap) vshard(vpn uint64) *vpnShard {
	return &b.v2p[vpn&(bimapShards-1)]
}

func (b *Bimap) pshard(fp int64) *fpShard {
	return &b.p2v[uint64(fp)&(bimapShards-1)]
}

// BuildBimap materializes the page-wise mapping of every area of mappings
// that is backed by the file with the given inode. pageSize is the page
// granularity (4096 throughout this repository).
func BuildBimap(mappings []Mapping, inode uint64, pageSize int) *Bimap {
	b := NewBimap()
	for _, m := range mappings {
		if m.Inode != inode {
			continue
		}
		pages := m.Pages(pageSize)
		firstVPN := m.Start / uint64(pageSize)
		firstFile := int64(m.Offset / uint64(pageSize))
		for i := 0; i < pages; i++ {
			b.Add(firstVPN+uint64(i), firstFile+int64(i))
		}
	}
	return b
}

// Add records that virtual page vpn maps file page fp, replacing any
// previous mapping of vpn.
func (b *Bimap) Add(vpn uint64, fp int64) {
	vs := b.vshard(vpn)
	vs.mu.Lock()
	old, had := vs.m[vpn]
	vs.m[vpn] = fp
	vs.mu.Unlock()
	if had {
		b.dropReverse(old, vpn)
	}
	ps := b.pshard(fp)
	ps.mu.Lock()
	ps.m[fp] = append(ps.m[fp], vpn)
	ps.mu.Unlock()
}

// Remove forgets the mapping of virtual page vpn. It reports whether the
// page was mapped.
func (b *Bimap) Remove(vpn uint64) bool {
	vs := b.vshard(vpn)
	vs.mu.Lock()
	fp, ok := vs.m[vpn]
	if ok {
		delete(vs.m, vpn)
	}
	vs.mu.Unlock()
	if !ok {
		return false
	}
	b.dropReverse(fp, vpn)
	return true
}

func (b *Bimap) dropReverse(fp int64, vpn uint64) {
	ps := b.pshard(fp)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	vs := ps.m[fp]
	for i, v := range vs {
		if v == vpn {
			vs[i] = vs[len(vs)-1]
			vs = vs[:len(vs)-1]
			break
		}
	}
	if len(vs) == 0 {
		delete(ps.m, fp)
	} else {
		ps.m[fp] = vs
	}
}

// MappedIn reports whether file page fp is mapped anywhere inside the
// virtual page range [lo, hi), and returns the first such virtual page.
// Update alignment uses this to test "is page p already indexed by this
// partial view" (§2.4), with [lo, hi) being the view's virtual area.
// Concurrent mutations of other views' entries never change the outcome:
// the range filter only ever matches the calling view's own pages.
func (b *Bimap) MappedIn(fp int64, lo, hi uint64) (uint64, bool) {
	ps := b.pshard(fp)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, v := range ps.m[fp] {
		if v >= lo && v < hi {
			return v, true
		}
	}
	return 0, false
}
