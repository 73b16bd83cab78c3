package explicit

import (
	"github.com/asv-db/asv/internal/bitvec"
	"github.com/asv-db/asv/internal/storage"
)

// Bitmap is the §3.1 "Bitmap" variant: a separate bitvector with one bit
// per column page, set when the page holds a value in the index range. "A
// lookup basically results in a scan of the bitvector with subsequent
// jumps into the column for each qualifying page."
type Bitmap struct {
	col    *storage.Column
	lo, hi uint64
	bits   *bitvec.Vector
}

// NewBitmap builds the bitvector by scanning the column once.
func NewBitmap(col *storage.Column, lo, hi uint64) (*Bitmap, error) {
	b := &Bitmap{col: col, lo: lo, hi: hi, bits: bitvec.New(col.NumPages())}
	for p := 0; p < col.NumPages(); p++ {
		ok, err := qualifies(col, p, lo, hi)
		if err != nil {
			return nil, err
		}
		if ok {
			b.bits.Set(p)
		}
	}
	return b, nil
}

// Name implements Index.
func (b *Bitmap) Name() string { return "bitmap" }

// Lo implements Index.
func (b *Bitmap) Lo() uint64 { return b.lo }

// Hi implements Index.
func (b *Bitmap) Hi() uint64 { return b.hi }

// Pages implements Index.
func (b *Bitmap) Pages() int { return b.bits.Count() }

// Lookup implements Index.
func (b *Bitmap) Lookup(qlo, qhi uint64) (int, uint64, error) {
	if err := checkRange(b.Name(), b.lo, b.hi, qlo, qhi); err != nil {
		return 0, 0, err
	}
	count, sum := 0, uint64(0)
	for p := b.bits.NextSet(0); p != -1; p = b.bits.NextSet(p + 1) {
		pg, err := b.col.PageBytes(p)
		if err != nil {
			return count, sum, err
		}
		s := storage.ScanFilter(pg, qlo, qhi)
		count += s.Count
		sum += s.Sum
	}
	return count, sum, nil
}

// ApplyUpdate implements Index: a new value inside the range marks the
// page; an old value inside the range with nothing new inside forces a
// rescan that may clear the bit.
func (b *Bitmap) ApplyUpdate(row int, old, new uint64) error {
	page := row / storage.ValuesPerPage
	if new >= b.lo && new <= b.hi {
		b.bits.Set(page)
		return nil
	}
	if old >= b.lo && old <= b.hi && b.bits.Get(page) {
		ok, err := qualifies(b.col, page, b.lo, b.hi)
		if err != nil {
			return err
		}
		if !ok {
			b.bits.Clear(page)
		}
	}
	return nil
}

// Release implements Index.
func (b *Bitmap) Release() {}
