package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/asv-db/asv/internal/procmaps"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/vmsim"
)

// Update is one element of an update batch (§2.4): row r was overwritten,
// Old being the value replaced and New the value written.
type Update struct {
	Row int
	Old uint64
	New uint64
}

// updateShard is one pending-buffer shard. Updates are routed to shards
// by physical page (Row / ValuesPerPage % shards), so concurrent writers
// of different pages append — and write the column — under different
// locks, while writes to the same page serialize on its shard. The
// trailing pad keeps neighbouring shard locks off one cache line.
type updateShard struct {
	mu  sync.Mutex
	ups []Update
	_   [32]byte
}

// UpdateStats reports the cost split of one alignment run — exactly the
// quantities Figure 7 plots: maps-parsing time vs view-update time, and
// the number of physical pages added to and removed from the views.
type UpdateStats struct {
	BatchSize  int // updates in the raw batch
	NetUpdates int // after last-write-per-row squashing
	DirtyPages int // distinct physical pages touched

	ParseDuration time.Duration // RenderMaps + Parse + BuildBimap (§2.5)
	AlignDuration time.Duration // per-view alignment (§2.4)
	MapsBytes     int           // size of the parsed maps file
	MapsLines     int           // mappings in it

	PagesAdded   int // view pages mapped by case (1)
	PagesRemoved int // view pages unmapped by case (2)
	PagesScanned int // full-page rescans required by case (2)
}

// RowWrite is one row overwrite of a (batched) Update call.
type RowWrite struct {
	Row   int
	Value uint64
}

// Update writes newVal to row through the full view and buffers the
// (row, old, new) triple for the next FlushUpdates. This is the paper's
// model: updates happen through the full view immediately; partial views
// are realigned in batches (§2.4). Update holds the engine lock shared,
// so concurrent writers serialize only per pending-buffer shard (i.e. per
// group of physical pages). Queries take no lock: copy-on-write keeps
// every page a pinned capture can reach frozen under concurrent writes.
//
// With an autopilot (Config.Autopilot), Update is fire-and-forget: the
// write is validated and queued in the intake buffers without touching
// the engine lock, and the pilot applies and aligns it within
// MaxFlushLatency (sooner when the coalesce thresholds fill) as part of
// a group commit. Sync (or FlushUpdates) is the read-your-writes
// barrier; Close drains the intake, so no accepted write is ever lost.
func (e *Engine) Update(row int, newVal uint64) error {
	if e.pilot != nil {
		return e.pilot.Enqueue(row, newVal)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.applyWrite(row, newVal)
}

// UpdateBatch applies a group of writes under one shared hold of the
// engine lock — group commit for the write path. It is semantically
// identical to calling Update for each element in order (on error the
// prefix before the failing write stays applied and buffered), but a
// lone Update under concurrent readers can wait out one flush per write
// and hand the next query a one-update batch to flush and align in full.
func (e *Engine) UpdateBatch(ws []RowWrite) error {
	if len(ws) == 0 {
		return nil
	}
	if e.pilot != nil {
		// Drain the fire-and-forget intake before the direct group
		// commit: a queued older Update to the same row must land before
		// this batch, or the pilot's later drain would silently undo the
		// newer write ("semantically identical to calling Update for
		// each element in order").
		if err := e.pilot.ApplyQueued(); err != nil {
			return err
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, w := range ws {
		if err := e.applyWrite(w.Row, w.Value); err != nil {
			return err
		}
	}
	return nil
}

// applyWrite performs one column write and buffers its triple in the
// row's page shard.
//
//asv:locked=shared
func (e *Engine) applyWrite(row int, newVal uint64) error {
	page, _, err := e.col.RowLocation(row)
	if err != nil {
		return err
	}
	sh := &e.shards[page%len(e.shards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, err := e.col.SetValue(row, newVal)
	if err != nil {
		return err
	}
	sh.ups = append(sh.ups, Update{Row: row, Old: old, New: newVal})
	e.pendingCount.Add(1)
	e.stats.updatesBuffered.Add(1)
	return nil
}

// PendingUpdates returns the number of buffered updates. It reads an
// atomic counter, so it never contends with writers or scans.
func (e *Engine) PendingUpdates() int {
	return int(e.pendingCount.Load())
}

// takePendingLocked drains every shard into one batch with the
// deterministic §2.4 merge order: ascending physical page, arrival order
// within a page. A page hashes to exactly one shard, so each page's
// updates are already in arrival order there and a stable sort restores
// the single-buffer batch exactly — squashing produces byte-identical
// results to the pre-sharding write path. The caller holds the engine
// lock exclusively, which happens-after every writer's release of its
// shared hold, so shard slices are read without their locks.
//
//asv:locked=exclusive
func (e *Engine) takePendingLocked() []Update {
	n := int(e.pendingCount.Load())
	if n == 0 {
		return nil
	}
	batch := make([]Update, 0, n)
	for i := range e.shards {
		sh := &e.shards[i]
		batch = append(batch, sh.ups...)
		sh.ups = sh.ups[:0]
	}
	e.pendingCount.Store(0)
	sort.SliceStable(batch, func(i, j int) bool {
		return batch[i].Row/storage.ValuesPerPage < batch[j].Row/storage.ValuesPerPage
	})
	return batch
}

// resetPendingLocked drops all buffered updates (RebuildViews rescans
// the column, which already holds every applied write). The caller holds
// the engine lock exclusively.
//
//asv:locked=exclusive
func (e *Engine) resetPendingLocked() {
	for i := range e.shards {
		e.shards[i].ups = nil
	}
	e.pendingCount.Store(0)
}

// FlushUpdates aligns all partial views with the buffered update batch and
// clears the buffers, holding the engine lock exclusively for the whole
// alignment.
// With an autopilot, the intake is drained (applied) first, so the flush
// covers every write accepted before the call — the synchronous barrier
// the paper's inline model gives implicitly.
func (e *Engine) FlushUpdates() (UpdateStats, error) {
	if e.pilot != nil {
		// Apply without aligning: the alignment happens just below, and
		// the pilot must not take the engine lock exclusively itself while
		// this caller is about to (drain mutex strictly precedes the
		// engine lock).
		if err := e.pilot.ApplyQueued(); err != nil {
			return UpdateStats{}, err
		}
	}
	return e.flushApplied()
}

// flushApplied aligns the applied-but-unaligned updates, without touching
// the autopilot intake — the pilot's own alignment entry point (its drain
// already applied the writes).
func (e *Engine) flushApplied() (UpdateStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flushLocked()
}

// flushLocked is FlushUpdates for callers already holding the engine lock
// exclusively.
//
//asv:locked=exclusive
func (e *Engine) flushLocked() (UpdateStats, error) {
	return e.alignLocked(e.takePendingLocked())
}

// alignLocked realigns every partial view with an update batch whose writes
// have already been applied to the column. It implements §2.4 end to end:
// last-write-per-row squashing, grouping by physical page, one maps-file
// parse into a bimap (§2.5), and the per-page add/keep/remove decision for
// each view. Alignment rewires view pages in place, so the caller holds the
// engine lock exclusively for the whole batch. Empty batches return
// immediately and are not counted as update batches — a no-op FlushUpdates
// must not skew per-batch averages.
//
//asv:locked=exclusive
func (e *Engine) alignLocked(batch []Update) (UpdateStats, error) {
	st := UpdateStats{BatchSize: len(batch)}
	if len(batch) == 0 {
		return st, nil
	}
	e.stats.updateBatches.Add(1)
	// Invalidate in-flight candidates even when the set is empty: a
	// candidate scanned before this batch is not a set member yet, so
	// this alignment cannot reach it, and no later flush will carry the
	// batch again.
	e.gen++
	if e.set.Len() == 0 {
		// No views to align, but the batch's writes shadowed pages: the
		// successor state must capture the shadows or readers would keep
		// answering from the pre-write frames.
		return st, e.publishStateLocked()
	}

	// Step 1 (§2.4): filter the sequence so only the last update per row
	// remains, paired with the first overwritten value: u0=(r,a,b),
	// u1=(r,c,d) collapse to (r,a,d).
	squashed := make(map[int]Update, len(batch))
	for _, u := range batch {
		if prev, ok := squashed[u.Row]; ok {
			prev.New = u.New
			squashed[u.Row] = prev
		} else {
			squashed[u.Row] = u
		}
	}
	st.NetUpdates = len(squashed)

	// Step 2: group by modified physical page.
	byPage := make(map[int][]Update)
	for _, u := range squashed {
		p := u.Row / storage.ValuesPerPage
		byPage[p] = append(byPage[p], u)
	}
	st.DirtyPages = len(byPage)
	pages := make([]int, 0, len(byPage))
	for p := range byPage {
		pages = append(pages, p)
	}
	sort.Ints(pages) // deterministic alignment order

	// Lazy views must be mapped before the maps render: the bimap's
	// page-wise index is built from VMAs, so an unmapped slot would read
	// as "not indexed" and case (1) would append a physical page the view
	// already covers.
	for _, v := range e.set.Partials() {
		if err := v.EnsureMapped(); err != nil {
			return st, fmt.Errorf("core: materializing view for alignment: %w", err)
		}
	}

	// Step 3 (§2.5): parse the maps file once and materialize the
	// page-wise bidirectional map.
	t0 := time.Now()
	mapsTxt := e.col.Space().RenderMaps()
	st.MapsBytes = len(mapsTxt)
	ms, err := procmaps.Parse(mapsTxt)
	if err != nil {
		return st, fmt.Errorf("core: parsing maps: %w", err)
	}
	st.MapsLines = len(ms)
	bm := procmaps.BuildBimap(ms, e.col.File().Inode(), vmsim.PageSize)
	st.ParseDuration = time.Since(t0)

	// Step 4 (§2.4): align each partial view, maintaining the bimap from
	// user space as pages are rewired.
	t1 := time.Now()
	if err := e.alignPartials(pages, byPage, bm, &st); err != nil {
		return st, err
	}
	st.AlignDuration = time.Since(t1)
	e.stats.pagesAdded.Add(uint64(st.PagesAdded))
	e.stats.pagesRemoved.Add(uint64(st.PagesRemoved))
	// Publish the aligned state: from here on, readers route the
	// realigned views and the post-write page frames.
	return st, e.publishStateLocked()
}

// alignPartials walks every partial view in view order with the §2.4
// decision procedure, accumulating into st, and stops at the first error.
func (e *Engine) alignPartials(pages []int, byPage map[int][]Update,
	bm *procmaps.Bimap, st *UpdateStats) error {

	for _, v := range e.set.Partials() {
		if err := e.alignView(v, pages, byPage, bm, st); err != nil {
			return err
		}
	}
	return nil
}

// alignView applies the §2.4 decision procedure for one partial view
// covering [a, b]: it mutates only its own view's pages (and the bimap
// entries for that view's virtual area) and reads the column through the
// resolved soft-TLB.
func (e *Engine) alignView(v *view.View, pages []int, byPage map[int][]Update,
	bm *procmaps.Bimap, st *UpdateStats) error {
	a, b := v.Lo(), v.Hi()
	// The view's soft-TLB array may be shared with a published capture;
	// clone it before the session's first mutation (and only then — a
	// view untouched by this batch keeps sharing).
	cloned := false
	ensureTLB := func() {
		if !cloned {
			v.BeginTLBMutation()
			cloned = true
		}
	}
	for _, pageID := range pages {
		ups := byPage[pageID]
		anyNewIn, anyOldIn := false, false
		for _, u := range ups {
			if u.New >= a && u.New <= b {
				anyNewIn = true
			}
			if u.Old >= a && u.Old <= b {
				anyOldIn = true
			}
		}

		vpn, indexed := bm.MappedIn(int64(pageID), v.BaseVPN(), v.EndMappedVPN())
		if !indexed {
			// Case (1): not indexed. Index it iff some update brought a
			// value of this page into [a, b]; an "unused" virtual page is
			// available thanks to creation over-allocation.
			if anyNewIn {
				ensureTLB()
				newVPN, err := v.AppendPage(pageID)
				if err != nil {
					return err
				}
				bm.Add(newVPN, int64(pageID))
				st.PagesAdded++
			}
			continue
		}

		// Indexed dirty page: the batch's writes shadowed it onto a
		// fresh frame (copy-on-write), so the view's cached translation
		// — and the page-table entry behind its virtual page — still
		// reference the frozen pre-write frame. Refresh both before the
		// keep/remove decision; whatever the decision, a kept page must
		// serve the post-write bytes in the state published after this
		// alignment.
		pg, err := e.col.PageBytes(pageID)
		if err != nil {
			return err
		}
		ensureTLB()
		v.RefreshSlot(int(vpn-v.BaseVPN()), pg)
		if err := e.col.Space().RepointPage(vmsim.VPN(vpn)); err != nil {
			return err
		}

		// Case (2): currently indexed.
		if anyNewIn {
			// A new value falls into the range: the page must stay.
			continue
		}
		if !anyOldIn {
			// No update removed a covered value, so whatever justified
			// indexing the page is still there.
			continue
		}
		// Some covered value was overwritten and nothing covered was
		// written: only a full inspection of the page can tell whether it
		// still holds a value in [a, b].
		st.PagesScanned++
		if s := storage.ScanFilter(pg, a, b); s.Count > 0 {
			continue
		}
		slot := int(vpn - v.BaseVPN())
		res, err := v.RemovePageAt(slot)
		if err != nil {
			return err
		}
		bm.Remove(res.FreedVPN)
		if res.MovedFilePage >= 0 {
			bm.Add(res.MovedToVPN, res.MovedFilePage)
		}
		st.PagesRemoved++
	}
	return nil
}
