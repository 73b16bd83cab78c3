package main

import (
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/vmsim"
)

// physicalColumn builds the ladder's column on the storage layer alone.
func (l *ladder) physicalColumn() (*storage.Column, error) {
	k := vmsim.NewKernel(0)
	col, err := storage.NewColumn(k, k.NewAddressSpace(), "ladder", l.pages)
	if err != nil {
		return nil, err
	}
	g, err := l.gen().generator()
	if err != nil {
		return nil, err
	}
	return col, col.FillParallel(g, 0)
}

// rungStorage times the page kernels over pre-resolved page slices — no
// translation, no routing — then Column.FullScan, which adds the page
// fetch, and FillParallel.
func rungStorage(l *ladder) error {
	col, err := l.physicalColumn()
	if err != nil {
		return err
	}
	defer func() { _ = col.Close() }() //asv:ignore-err benchmark teardown; measurement errors are returned
	g, err := l.gen().generator()
	if err != nil {
		return err
	}
	fill, err := l.replay(func() error { return col.FillParallel(g, 0) })
	if err != nil {
		return err
	}
	l.out["storage.fill_ns_per_page"] = ns(fill, l.pages)

	pages := make([][]byte, l.pages)
	for i := range pages {
		if pages[i], err = col.PageBytes(i); err != nil {
			return err
		}
	}
	var acc uint64
	scan, err := l.perQuery(l.scans, func(q query) error {
		for _, pg := range pages {
			acc += storage.ScanFilter(pg, q.lo, q.hi).Sum
		}
		return nil
	})
	if err != nil {
		return err
	}
	collect, err := l.perQuery(l.scans, func(q query) error {
		for _, pg := range pages {
			storage.CollectMatches(pg, q.lo, q.hi, func(_ int, v uint64) { acc += v })
		}
		return nil
	})
	if err != nil {
		return err
	}
	full, err := l.perQuery(l.scans, func(q query) error {
		_, s, err := col.FullScan(q.lo, q.hi)
		acc += s
		return err
	})
	if err != nil {
		return err
	}
	sink += acc
	scanned := len(l.scans) * l.pages
	l.out["storage.scanfilter_ns_per_page"] = ns(scan, scanned)
	l.out["storage.collect_ns_per_page"] = ns(collect, scanned)
	l.out["storage.fullscan_ns_per_page"] = ns(full, scanned)
	return nil
}
