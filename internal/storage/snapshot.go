package storage

import (
	"github.com/asv-db/asv/internal/vmsim"
)

// This file is the storage half of the engine's epoch-based snapshot
// machinery: a copy-on-write write path in the spirit of vmcache-style
// versioned page access ("Virtual-Memory Assisted Buffer Management"),
// adapted to the paper's update model. A published engine state captures
// the column's resolved soft-TLB (CaptureSnapshot); from that moment the
// captured array and every frame it references are immutable. The first
// write to a page in the next epoch therefore shadows the page — a fresh
// frame is installed behind the file page, initialized with the current
// contents (vmsim.File.ReplacePageFrame) — and all later writes of the
// same epoch land on the shadow in place. Readers of older captures keep
// reading the frozen originals; the displaced frames are returned by the
// next CaptureSnapshot for the engine to free once every state that
// could reference them has drained.

// EnableSnapshots switches the column's write path to per-epoch
// copy-on-write. It must be called before the column is used
// concurrently (the adaptive engine enables it at construction).
// Fill/FillParallel intentionally bypass the shadow path — bulk loading
// precedes concurrent use, exactly like NewColumn's pageID stamping.
func (c *Column) EnableSnapshots() {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	if c.snapOn {
		return
	}
	c.snapOn = true
	c.pageEpoch = make([]uint64, c.numPages)
	c.snapEpoch.Store(1)
}

// CaptureSnapshot hands out the column's current resolved soft-TLB as an
// immutable capture and opens the next snapshot epoch, returning the
// frames displaced by copy-on-write shadows since the previous capture.
// The caller (the engine, holding its lock exclusively) attaches the
// retired frames to the state being superseded and frees them via
// vmsim.Kernel.FreeFrame only after that state and every older one have
// drained — a translation resolved under an old capture may still point
// at them until then.
//
// The returned array is shared, not copied: the column installs a
// private clone before the first shadow of the new epoch (pageForWrite),
// so the capture is never written again. Write-free epochs share one
// array across any number of captures.
func (c *Column) CaptureSnapshot() (pages [][]byte, retired []vmsim.FrameID) {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	retired = c.retired
	c.retired = nil
	c.cloneNeeded = true
	c.snapEpoch.Add(1)
	return *c.tlb.Load(), retired
}

// pageForWrite resolves page p for an in-place write. Without snapshots
// this is PageBytes. With snapshots, the first write to p in the current
// epoch shadows the page; later writes of the epoch hit the shadow
// directly. Callers must serialize writes to the same page (the engine's
// per-shard buffer locks do); writes to different pages may run
// concurrently.
func (c *Column) pageForWrite(p int) ([]byte, error) {
	if !c.snapOn {
		return c.PageBytes(p)
	}
	// The epoch only advances under the engine lock's exclusive mode, which
	// excludes writers, so the load is stable for the whole write. The
	// pageEpoch slot is owned by p's shard lock: the comparison is exact.
	epoch := c.snapEpoch.Load()
	if t := c.tier.Load(); t != nil {
		// A write lands the page hot unconditionally: the shadow below
		// installs a fresh DRAM frame, and even the in-place branch makes
		// the page the epoch's working set. The promote's version bump
		// also invalidates concurrent optimistic readers mid-scan of the
		// page, which retry through their frozen capture.
		t.Promote(p)
	}
	if c.pageEpoch[p] == epoch {
		// Already shadowed this epoch. A concurrent shadow of another
		// page may have cloned the array since, but clones copy slots
		// verbatim, so a stale array resolves p identically.
		return (*c.tlb.Load())[p], nil
	}
	return c.shadowPage(p, epoch)
}

// shadowPage performs the copy-on-write of page p for the given epoch:
// clone the (captured) soft-TLB array if this is the epoch's first
// shadow, install a fresh frame with the page's current contents, repoint
// the full view's translation, and record the displaced frame for the
// next capture to retire.
func (c *Column) shadowPage(p int, epoch uint64) ([]byte, error) {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	if c.cloneNeeded {
		old := *c.tlb.Load()
		clone := make([][]byte, len(old))
		copy(clone, old)
		c.tlb.Store(&clone)
		c.cloneNeeded = false
	}
	oldFr, data, err := c.file.ReplacePageFrame(p)
	if err != nil {
		return nil, err
	}
	c.retired = append(c.retired, oldFr)
	(*c.tlb.Load())[p] = data
	// The full view's page-table entry still points at the displaced
	// frame; refresh it so PageData and future warmTLB walks resolve the
	// live page. Partial views mapping p are repointed during alignment,
	// which is the only consumer of their translations for dirty pages.
	if err := c.as.RepointPage(vmsim.VPN(c.fullAddr>>vmsim.PageShift) + vmsim.VPN(p)); err != nil {
		return nil, err
	}
	c.pageEpoch[p] = epoch
	return data, nil
}
