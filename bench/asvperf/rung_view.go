package main

import (
	"time"

	asv "github.com/asv-db/asv"
)

// batchViews is the number of ranges of one CreateViewOpt(..., Batch) call.
const batchViews = 16

// rungView times explicit view creation on a fresh column: eager, per page
// the view maps; lazy, per view, which records the slots and maps nothing;
// and a batch of batchViews ranges in one scan and one publication. Every
// call scans the column once to qualify pages.
func rungView(l *ladder) error {
	t, err := newColTarget(asv.DefaultConfig(), l.gen())
	if err != nil {
		return err
	}
	defer func() { _ = t.close() }() //asv:ignore-err benchmark teardown; measurement errors are returned

	// Disjoint ranges, so that no creation is discarded as covered.
	next := 0
	rangeAt := func() (lo, hi uint64) {
		lo = uint64(next) * (queryWidth + 1)
		next++
		return lo, lo + queryWidth
	}
	viewPages := func() int {
		total := 0
		for _, v := range t.col.Views() {
			total += v.Pages
		}
		return total
	}
	n := 2*l.sc.ladderReplays + 1
	var eager, lazy, batched []time.Duration
	eagerPages := 0
	for i := 0; i < n; i++ {
		lo, hi := rangeAt()
		before := viewPages()
		start := time.Now()
		if err := t.col.CreateViewOpt(lo, hi, asv.Eager()); err != nil {
			return err
		}
		eager = append(eager, time.Since(start))
		eagerPages += viewPages() - before

		lo, hi = rangeAt()
		start = time.Now()
		if err := t.col.CreateViewOpt(lo, hi, asv.Lazy()); err != nil {
			return err
		}
		lazy = append(lazy, time.Since(start))
	}
	for i := 0; i < l.sc.ladderReplays; i++ {
		lo, hi := rangeAt()
		extra := make([]asv.ViewRange, batchViews-1)
		for j := range extra {
			extra[j].Lo, extra[j].Hi = rangeAt()
		}
		start := time.Now()
		if err := t.col.CreateViewOpt(lo, hi, asv.Batch(extra...)); err != nil {
			return err
		}
		batched = append(batched, time.Since(start))
	}
	l.out["view.create_us_per_page"] = us(mid(eager), max(1, eagerPages/n))
	l.out["view.create_lazy_us"] = us(mid(lazy), 1)
	l.out["view.batch_create_us_per_view"] = us(mid(batched), batchViews)
	return nil
}
