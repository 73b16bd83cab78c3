package view

import (
	"runtime"
	"sync/atomic"

	"github.com/asv-db/asv/internal/vmsim"
)

// This file implements fault-driven view materialization: a view built
// with CreateOptions.Lazy records which physical page backs each of its
// slots but defers both the mmap call and the soft-TLB resolution until a
// slot is first accessed. Creation then costs one virtual reservation
// plus the qualification scan — "create a view per query pattern" stops
// paying O(qualifying pages) mapping work up front — and slots that are
// never read are never mapped at all.
//
// Each slot runs a small atomic state machine:
//
//	cold ──CAS──▶ resolving ──▶ warm
//
// The first reader to claim a cold slot (the CAS winner) maps the slot's
// backing file page into the view's reserved area and resolves the
// translation; concurrent readers of the same slot spin until the winner
// publishes the page behind the warm store. On error the winner resets
// the slot to cold, so a later access retries. The pg field is written
// strictly before the warm store and read strictly after the warm load,
// which is what makes the lock-free handoff safe.
//
// Mutation sessions (update alignment, Warm, AppendPage/RemovePageAt)
// never operate on a partially materialized directory: they start with
// EnsureMapped, which materializes every slot and converts the view to
// the eager soft-TLB representation — from then on every existing
// invalidation path (BeginTLBMutation, RefreshSlot, compaction) applies
// unchanged.

// Slot states of the demand-materialization directory.
const (
	slotCold int32 = iota
	slotResolving
	slotWarm
)

// pageDir is the demand-materialization directory of a lazy view: the
// backing file page per slot plus the per-slot resolution state machine.
// file is immutable after construction; slots are mutated only through
// the atomic claim protocol above.
type pageDir struct {
	file  []int32
	slots []dirSlot
}

// dirSlot is one slot's resolution state. pg is published by the atomic
// warm store: written before state becomes slotWarm, read only after
// observing slotWarm.
type dirSlot struct {
	state atomic.Int32
	pg    []byte
}

func newPageDir(file []int32) *pageDir {
	return &pageDir{file: file, slots: make([]dirSlot, len(file))}
}

// Lazy reports whether the view still defers slot materialization to
// first access (EnsureMapped and Warm convert a lazy view to the eager
// representation).
func (v *View) Lazy() bool { return v.lazy != nil }

// LazyFilePages returns the backing file page per slot of a lazy view,
// or nil for an eagerly materialized view. The slice is live view state:
// callers that outlive the caller's serialization scope (snapshot
// captures) must copy it.
func (v *View) LazyFilePages() []int32 {
	if v.lazy == nil {
		return nil
	}
	return v.lazy.file
}

// resolveLazy returns the i-th page of a lazy view, materializing the
// slot (demand mmap plus translation) on first access. Safe for any
// number of concurrent readers.
func (v *View) resolveLazy(i int) ([]byte, error) {
	s := &v.lazy.slots[i]
	for {
		switch s.state.Load() {
		case slotWarm:
			return s.pg, nil
		case slotCold:
			if !s.state.CompareAndSwap(slotCold, slotResolving) {
				continue
			}
			pg, err := v.materializeSlot(i, 1)
			if err != nil {
				s.state.Store(slotCold)
				return nil, err
			}
			// Promote-on-resolve: a first touch that materializes a slot is
			// a read access of its backing file page — charge the tier and
			// pull a demoted page back hot before the slot goes warm, so
			// every later read through the warm slot runs at hot speed.
			if t := v.col.Tier(); t != nil {
				t.Touch(int(v.lazy.file[i]))
			}
			s.pg = pg
			s.state.Store(slotWarm)
			return pg, nil
		default:
			// Another reader is materializing this slot; yield until it
			// publishes (or fails and resets to cold).
			runtime.Gosched()
		}
	}
}

// materializeSlot maps n consecutive backing file pages starting at slot
// i into the view's reserved area and returns the first slot's resolved
// page. The caller has claimed the slots (resolving state).
func (v *View) materializeSlot(i, n int) ([]byte, error) {
	addr := v.addr + vmsim.Addr(i)*vmsim.PageSize
	if err := v.col.Space().MmapFileFixedDemand(addr, v.col.File(), int(v.lazy.file[i]), n); err != nil {
		return nil, err
	}
	return v.col.Space().PageData(vmsim.VPN(v.BaseVPN() + uint64(i)))
}

// EnsureMapped materializes every slot of a lazy view and converts it to
// the eager soft-TLB representation; it is a no-op on eager views.
// Update alignment calls it for every partial view before rendering the
// maps file: the bimap's page-wise index is built from VMAs, so a cold
// (not yet mapped) slot would read as "not indexed" and alignment would
// append a physical page the view already covers. Like every other
// mutation session the caller must hold the engine lock exclusively;
// concurrent lock-free readers of individual slots remain safe (the
// conversion claims slots through the same CAS protocol they use).
func (v *View) EnsureMapped() error {
	d := v.lazy
	if d == nil {
		return nil
	}
	n := v.numPages
	for i := 0; i < n; {
		switch d.slots[i].state.Load() {
		case slotWarm:
			i++
		case slotResolving:
			runtime.Gosched()
		default:
			// Claim the longest run of cold slots with consecutive
			// backing pages and map it in one call — the §2.3
			// consecutive-run optimization applied to demand mapping.
			j := i
			for j < n && int(d.file[j]) == int(d.file[i])+(j-i) &&
				d.slots[j].state.CompareAndSwap(slotCold, slotResolving) {
				j++
			}
			if j == i {
				continue // lost the claim race; re-inspect the slot
			}
			if _, err := v.materializeSlot(i, j-i); err != nil {
				for k := i; k < j; k++ {
					d.slots[k].state.Store(slotCold)
				}
				return err
			}
			for k := i; k < j; k++ {
				pg, err := v.col.Space().PageData(vmsim.VPN(v.BaseVPN() + uint64(k)))
				if err != nil {
					for u := k; u < j; u++ {
						d.slots[u].state.Store(slotCold)
					}
					return err
				}
				d.slots[k].pg = pg
				d.slots[k].state.Store(slotWarm)
			}
			i = j
		}
	}
	// Every slot is warm: convert to the eager representation so the
	// existing mutation machinery (clone-on-mutate soft-TLB discipline,
	// RefreshSlot, compaction) applies unchanged.
	tlb := make([][]byte, n)
	for i := 0; i < n; i++ {
		tlb[i] = d.slots[i].pg
	}
	v.tlb = tlb
	v.lazy = nil
	return nil
}
