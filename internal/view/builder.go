package view

import (
	"errors"
	"fmt"
	"sync"

	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/vmsim"
)

// CreateOptions selects the §2.3 view-creation optimizations. The paper's
// system runs with both enabled; the Figure 6 experiment ablates them.
type CreateOptions struct {
	// Consecutive maps runs of consecutive qualifying physical pages in a
	// single mmap call instead of one call per page (§2.3 optimization 1).
	Consecutive bool
	// Concurrent performs the mmap calls on a background Mapper instead of
	// the scanning thread (§2.3 optimization 2). Requires a Mapper.
	Concurrent bool
	// Lazy defers all file-page mapping and soft-TLB resolution to the
	// view's first mutation session: the builder only records which
	// physical page backs each slot (see lazy.go). Creation then costs the
	// qualification scan plus one virtual reservation, and reads resolve
	// the slots through the epoch's full-view capture. Lazy takes
	// precedence over Consecutive and Concurrent (there is nothing to map
	// at build time); EnsureMapped still maps consecutive runs in one call.
	Lazy bool
}

// AllOptimizations is the paper's default configuration.
var AllOptimizations = CreateOptions{Consecutive: true, Concurrent: true}

// Builder incrementally constructs a partial view while the engine scans
// the source views: the scan thread calls AddPage for each qualifying
// physical page (in scan order), and Finish waits for the mapping to
// complete and returns the usable view. This mirrors Listing 1, where the
// candidate view is populated as "a side-product of query answering".
type Builder struct {
	col  *storage.Column
	v    *View
	opts CreateOptions

	mapper *Mapper
	wg     sync.WaitGroup
	ferr   firstErr

	runStart int     // first file page of the pending consecutive run
	runLen   int     // pending run length (0 = none)
	nextSlot int     // next virtual page slot to fill
	lazyFile []int32 // Lazy mode: backing file page per slot, in add order
	finished bool
}

// NewBuilder reserves the over-allocated virtual area for a new partial
// view: "we over-allocate the memory area to the size of the entire
// column, as we are unaware of how many physical pages will qualify" (§2).
// The reservation is anonymous and lazy, so it costs no physical memory.
// A Mapper must be supplied when opts.Concurrent is set.
func NewBuilder(col *storage.Column, opts CreateOptions, mapper *Mapper) (*Builder, error) {
	if opts.Concurrent && mapper == nil {
		return nil, errors.New("view: concurrent creation requires a Mapper")
	}
	addr, err := col.Space().MmapAnon(col.NumPages())
	if err != nil {
		return nil, fmt.Errorf("view: reserving virtual area: %w", err)
	}
	return &Builder{
		col: col,
		v: &View{
			col:      col,
			addr:     addr,
			capacity: col.NumPages(),
		},
		opts:   opts,
		mapper: mapper,
	}, nil
}

// AddPage appends qualifying physical page filePage to the view under
// construction. Pages must be added in scan order; with the Consecutive
// optimization, runs of adjacent file pages are accumulated and mapped in
// one call once the run breaks.
func (b *Builder) AddPage(filePage int) {
	if b.finished {
		panic("view: AddPage after Finish/Abort")
	}
	if b.opts.Lazy {
		b.lazyFile = append(b.lazyFile, int32(filePage))
		b.nextSlot++
		return
	}
	if !b.opts.Consecutive {
		b.emit(filePage, 1)
		return
	}
	if b.runLen > 0 && filePage == b.runStart+b.runLen {
		b.runLen++
		return
	}
	b.flushRun()
	b.runStart, b.runLen = filePage, 1
}

// PendingPages returns how many pages have been added so far (mapped or
// queued). The engine compares this against the full view's page count for
// the retention decision (Listing 1, line 22).
func (b *Builder) PendingPages() int { return b.nextSlot + b.runLen }

func (b *Builder) flushRun() {
	if b.runLen == 0 {
		return
	}
	b.emit(b.runStart, b.runLen)
	b.runLen = 0
}

func (b *Builder) emit(filePage, n int) {
	addr := b.v.addr + vmsim.Addr(b.nextSlot)*vmsim.PageSize
	b.nextSlot += n
	if b.opts.Concurrent {
		b.wg.Add(1)
		err := b.mapper.Enqueue(Request{
			AS:       b.col.Space(),
			Addr:     addr,
			File:     b.col.File(),
			FilePage: filePage,
			Pages:    n,
			Done: func(err error) {
				b.ferr.set(err)
				b.wg.Done()
			},
		})
		if err != nil {
			b.wg.Done()
			b.ferr.set(err)
		}
		return
	}
	b.ferr.set(b.col.Space().MmapFileFixed(addr, b.col.File(), filePage, n))
}

// Finish flushes pending work, waits for the mapping thread to complete
// this builder's requests, and returns the view covering [lo, hi]. On
// error the reservation is released.
func (b *Builder) Finish(lo, hi uint64) (*View, error) {
	if b.finished {
		return nil, errors.New("view: Finish called twice")
	}
	b.flushRun()
	b.wg.Wait()
	b.finished = true
	if err := b.ferr.get(); err != nil {
		_ = b.v.Release() //asv:ignore-err unwinding a failed build; the builder error is returned
		return nil, err
	}
	b.v.numPages = b.nextSlot
	b.v.lo, b.v.hi = lo, hi
	if b.opts.Lazy {
		// No mapping happened; the view keeps the recorded slot directory
		// until EnsureMapped. A view with no slots still reports Lazy.
		b.v.lazy = b.lazyFile
		if b.v.lazy == nil {
			b.v.lazy = []int32{}
		}
		return b.v, nil
	}
	// Warm the soft-TLB before the view becomes visible: concurrent
	// readers then never write view state (see View.tlb).
	if err := b.v.warmTLB(); err != nil {
		_ = b.v.Release() //asv:ignore-err unwinding a failed build; the warm error is returned
		return nil, err
	}
	return b.v, nil
}

// Abort discards the view under construction, waiting for any queued
// mapping requests before unmapping the area. Safe to call after Finish
// has failed; not after it succeeded.
func (b *Builder) Abort() error {
	if b.finished {
		return nil
	}
	b.runLen = 0
	b.wg.Wait()
	b.finished = true
	return b.v.Release()
}
