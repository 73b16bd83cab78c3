package explicit

import (
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/view"
)

// VirtualView adapts a rewired virtual partial view (the paper's
// contribution) to the Index interface so Figure 3 can race it against the
// explicit variants. "In all cases, virtual partial views clearly win, as
// it has the least code complexity and naturally exploits hardware
// prefetching" — the lookup is a dense scan of the view's mapped prefix,
// with no per-page metadata checks at all.
//
// For the experiment's point-update stream the wrapper maintains a local
// pageID→slot table (the batch path of the real system derives this from
// /proc/PID/maps instead, §2.5).
type VirtualView struct {
	v    *view.View
	slot map[uint64]int // pageID -> view slot
}

// NewVirtualView creates the partial view over [lo, hi] with the given
// creation options.
func NewVirtualView(col *storage.Column, lo, hi uint64, opts view.CreateOptions, mapper *view.Mapper) (*VirtualView, error) {
	vs, err := view.Build(col, []view.Spec{{Lo: lo, Hi: hi, Opts: opts}}, mapper)
	if err != nil {
		return nil, err
	}
	v := vs[0]
	ids, err := v.PageIDs()
	if err != nil {
		v.Release()
		return nil, err
	}
	slot := make(map[uint64]int, len(ids))
	for i, id := range ids {
		slot[id] = i
	}
	return &VirtualView{v: v, slot: slot}, nil
}

// Name implements Index.
func (w *VirtualView) Name() string { return "virtual" }

// Lo implements Index.
func (w *VirtualView) Lo() uint64 { return w.v.Lo() }

// Hi implements Index.
func (w *VirtualView) Hi() uint64 { return w.v.Hi() }

// Pages implements Index.
func (w *VirtualView) Pages() int { return w.v.NumPages() }

// Lookup implements Index: a dense scan of the view.
func (w *VirtualView) Lookup(qlo, qhi uint64) (int, uint64, error) {
	if err := checkRange(w.Name(), w.v.Lo(), w.v.Hi(), qlo, qhi); err != nil {
		return 0, 0, err
	}
	r, err := w.v.Scan(qlo, qhi)
	return r.Count, r.Sum, err
}

// ApplyUpdate implements Index: rewire the page in or out of the view.
func (w *VirtualView) ApplyUpdate(row int, old, new uint64) error {
	page := uint64(row / storage.ValuesPerPage)
	lo, hi := w.v.Lo(), w.v.Hi()
	slot, present := w.slot[page]

	if new >= lo && new <= hi {
		if !present {
			if _, err := w.v.AppendPage(int(page)); err != nil {
				return err
			}
			w.slot[page] = w.v.NumPages() - 1
		}
		return nil
	}
	if !present || old < lo || old > hi {
		return nil
	}
	ok, err := qualifies(w.v.Column(), int(page), lo, hi)
	if err != nil {
		return err
	}
	if ok {
		return nil
	}
	res, err := w.v.RemovePageAt(slot)
	if err != nil {
		return err
	}
	delete(w.slot, page)
	if res.MovedFilePage >= 0 {
		w.slot[uint64(res.MovedFilePage)] = slot
	}
	return nil
}

// Release implements Index.
func (w *VirtualView) Release() { w.v.Release() }
