package core

import (
	"sync"

	"github.com/asv-db/asv/internal/bitvec"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/viewset"
)

// minParallelScanPages aliases the storage layer's sharding threshold:
// below it goroutine startup dominates the sub-µs per-page filter.
const minParallelScanPages = storage.MinParallelScanPages

// scanSharded is scanSource's parallel kernel: it filters the source's
// pages with `workers` page-sharded goroutines and reduces the shards in
// page order with storage.PageScan.Merge, so every aggregate — and the
// order emit sees qualifying pages in — is byte-identical to the serial
// loop. Page access is a pure read (captures hold resolved pages), so
// workers share the source freely; emit runs on the calling goroutine
// after the shards join.
func scanSharded(sv *viewset.SnapView, workers int, filter func([]byte) storage.PageScan,
	processed *bitvec.Vector, emit func(pid uint64, pg []byte)) (n int, qual, excl storage.PageScan) {

	n = sv.NumPages()
	page := sv.PageBytes
	if processed != nil {
		// Resolve the not-yet-processed pages in scan order before
		// splitting — TestAndSet stays single-threaded (bitvec is not
		// atomic).
		refs := make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			pg := sv.PageBytes(i)
			if !processed.TestAndSet(int(storage.PageID(pg))) {
				refs = append(refs, pg)
			}
		}
		n = len(refs)
		page = func(i int) []byte { return refs[i] }
	}
	if workers > n {
		workers = n
	}

	type shard struct {
		qual, excl storage.PageScan
		hits       [][]byte // qualifying pages of the block, in page order
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	for w := range shards {
		// Contiguous blocks of near-equal size; empty when every page was
		// already processed (workers is then 0 and no shard starts).
		start, end := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			for i := start; i < end; i++ {
				pg := page(i)
				s := filter(pg)
				if s.Count == 0 {
					sh.excl.Merge(s)
					continue
				}
				sh.qual.Merge(s)
				if emit != nil {
					sh.hits = append(sh.hits, pg)
				}
			}
		}(&shards[w])
	}
	wg.Wait()

	// Reduce in block order: blocks are contiguous page ranges, so this
	// replays the serial page order exactly.
	for w := range shards {
		qual.Merge(shards[w].qual)
		excl.Merge(shards[w].excl)
		for _, pg := range shards[w].hits {
			emit(storage.PageID(pg), pg)
		}
	}
	return n, qual, excl
}
