package view

import (
	"github.com/asv-db/asv/internal/vmsim"
)

// This file implements lazy view creation: a view built with
// CreateOptions.Lazy records which physical page backs each of its slots
// and maps nothing. Creation then costs one virtual reservation plus the
// qualification scan. Reads never map a slot: the engine routes and scans
// against an epoch capture, which resolves a lazy view's slots through
// the column's frozen full-view pages (LazyFilePages). The first mutation
// session (update alignment, AppendPage/RemovePageAt) starts with
// EnsureMapped, which maps the view and converts it to the eager soft-TLB
// representation — from then on every existing invalidation path
// (BeginTLBMutation, RefreshSlot, compaction) applies unchanged.

// Lazy reports whether the view is still an unmapped slot directory
// (EnsureMapped converts a lazy view to the eager representation).
func (v *View) Lazy() bool { return v.lazy != nil }

// LazyFilePages returns the backing file page per slot of a lazy view,
// or nil for an eagerly materialized view. The slice is live view state:
// callers that outlive the caller's serialization scope (snapshot
// captures) must copy it.
func (v *View) LazyFilePages() []int32 { return v.lazy }

// EnsureMapped maps every slot of a lazy view and converts it to the
// eager soft-TLB representation; it is a no-op on eager views. Update
// alignment calls it for every partial view before rendering the maps
// file: the bimap's page-wise index is built from VMAs, so an unmapped
// slot would read as "not indexed" and alignment would append a physical
// page the view already covers. Each run of consecutive backing pages is
// mapped in one call — the §2.3 consecutive-run optimization — counted in
// MapStats.DemandMaps. Like every other mutation session the caller must
// hold the engine lock exclusively. On error the view stays lazy and a
// retry maps it again from the start.
func (v *View) EnsureMapped() error {
	file := v.lazy
	if file == nil {
		return nil
	}
	for i := 0; i < len(file); {
		j := i + 1
		for j < len(file) && file[j] == file[i]+int32(j-i) {
			j++
		}
		addr := v.addr + vmsim.Addr(i)*vmsim.PageSize
		if err := v.col.Space().MmapFileFixedDemand(addr, v.col.File(), int(file[i]), j-i); err != nil {
			return err
		}
		i = j
	}
	if err := v.warmTLB(); err != nil {
		return err
	}
	v.lazy = nil
	return nil
}
