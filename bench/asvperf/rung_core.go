package main

import (
	"time"

	asv "github.com/asv-db/asv"
	"github.com/asv-db/asv/internal/xrand"
)

// rungCore times the engine's read and write paths on one column:
// BaselineConfig's pin-and-scan loop; then, on a warmed adaptive column, the
// routed read through a Snapshot (routing and the per-view loop on a frozen
// capture, no candidate), the same with Aggregate and Rows, the live read's
// extra cost over it, and the write path row by row.
func rungCore(l *ladder) error {
	base, err := newColTarget(asv.BaselineConfig(), l.gen())
	if err != nil {
		return err
	}
	var acc uint64
	baseline, err := l.perQuery(l.scans, func(q query) error {
		ans, err := base.col.QueryOpt(q.lo, q.hi)
		acc += ans.Sum
		return err
	})
	if cerr := base.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.out["core.baseline_ns_per_page"] = ns(baseline, len(l.scans)*l.pages)

	inst, err := columnInstance(asv.DefaultConfig(), l.gen(), sub(l.seed, streamLadder, 3), l.sc.warmQueries, plain)
	if err != nil {
		return err
	}
	t := inst.t.(*colTarget)
	defer func() { _ = t.close() }() //asv:ignore-err benchmark teardown; measurement errors are returned

	snap, err := t.col.Snapshot()
	if err != nil {
		return err
	}
	for _, r := range []struct {
		metric string
		opts   []asv.QueryOption
	}{
		{"core.routed_ns_per_page", kindOpts[plain]},
		{"core.aggregate_ns_per_page", kindOpts[aggregate]},
		{"core.rows_ns_per_page", kindOpts[rows]},
	} {
		scanned := 0
		d, err := l.perQuery(l.queries, func(q query) error {
			ans, err := snap.QueryOpt(q.lo, q.hi, r.opts...)
			acc += ans.Sum
			scanned += ans.PagesScanned
			return err
		})
		if err != nil {
			_ = snap.Close() //asv:ignore-err unwinding a failed measurement; its error is returned
			return err
		}
		// scanned saw every replay of every query; the sum of medians is one.
		l.out[r.metric] = ns(d, scanned/l.sc.ladderReplays)
	}
	if err := snap.Close(); err != nil {
		return err
	}

	// The live read against the read of a snapshot taken just before it:
	// same state, same query; the difference is the candidate's build and
	// its publication or discard. A live read changes the state, so it
	// runs once per query.
	var live, pinned time.Duration
	for _, q := range l.queries {
		snap, err := t.col.Snapshot()
		if err != nil {
			return err
		}
		d, err := l.replay(func() error {
			ans, err := snap.QueryOpt(q.lo, q.hi)
			acc += ans.Sum
			return err
		})
		if cerr := snap.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		pinned += d
		start := time.Now()
		ans, err := t.col.QueryOpt(q.lo, q.hi)
		live += time.Since(start)
		if err != nil {
			return err
		}
		acc += ans.Sum
	}
	l.out["core.adapt_overhead_us_per_query"] = us(live-pinned, len(l.queries))
	sink += acc

	// The write path at the view count the warm-up left: UpdateBatch per
	// row, FlushUpdates per row after a full batch, and FlushUpdates after a
	// single row — the floor a flush pays for publication and recapture.
	writes := xrand.New(sub(l.seed, streamLadder, 4))
	draw := func(n int) []asv.RowWrite {
		ws := make([]asv.RowWrite, n)
		for i := range ws {
			ws[i] = asv.RowWrite{Row: writes.Intn(t.col.Rows()), Value: writes.Uint64Range(0, domain)}
		}
		return ws
	}
	var update, flush, floor []time.Duration
	for i := 0; i < 2*l.sc.ladderReplays+1; i++ {
		for _, n := range []int{l.sc.cycleRows, 1} {
			ws := draw(n)
			t0 := time.Now()
			if err := t.write(0, ws); err != nil {
				return err
			}
			t1 := time.Now()
			if err := t.flush(0); err != nil {
				return err
			}
			t2 := time.Now()
			if n == 1 {
				floor = append(floor, t2.Sub(t1))
			} else {
				update, flush = append(update, t1.Sub(t0)), append(flush, t2.Sub(t1))
			}
		}
	}
	l.out["core.update_us_per_row"] = us(mid(update), l.sc.cycleRows)
	l.out["core.flush_us_per_row"] = us(mid(flush), l.sc.cycleRows)
	l.out["core.flush_fixed_us"] = us(mid(floor), 1)
	return nil
}
