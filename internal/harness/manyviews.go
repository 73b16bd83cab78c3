package harness

import (
	"fmt"
	"time"

	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/xrand"
)

// manyViewsCounts is the view-count sweep of the many-views panel.
// Counts larger than the column's page count are skipped (views would
// be mostly empty and the cell would measure nothing interesting).
var manyViewsCounts = []int{64, 256, 1024, 4096}

// manyViewsPubRounds is how many single-update flush/publish cycles one
// cell averages publication latency over (after one warmup flush that
// pays the one-time mapping of every lazy view).
const manyViewsPubRounds = 8

// RunManyViews measures the two costs this layer's scaling work targets
// (beyond the paper): what standing up and maintaining thousands of
// views costs. Per view count N, the column's value domain is cut into N
// disjoint equal ranges and one view is created per range in a single
// batched pass. Columns:
//
//   - create_ms: wall time of the batched creation (one qualification
//     scan, one publication; lazy views map nothing up front).
//   - state_pub_ms: mean state-publication latency while single-row update
//     batches flush — each batch touches a handful of views, so with
//     delta captures the latency stays flat as N grows instead of
//     scaling with the view count.
//   - firsttouch_qps: pinned-snapshot queries, one per view, fired
//     right after creation — the first read of each never-read lazy
//     view, served through the snapshot's capture (no read maps a lazy
//     view).
func RunManyViews(s Scale) (*Table, error) {
	t := &Table{
		ID: "manyviews",
		Title: fmt.Sprintf(
			"Many-views scaling, linear distribution, %d pages: batched creation, delta publication, first reads",
			s.Pages),
		Header: []string{"views", "create_ms", "state_pub_ms", "firsttouch_qps"},
	}
	for _, n := range manyViewsCounts {
		if n > s.Pages {
			s.logf("manyviews: skipping %d views (> %d pages)", n, s.Pages)
			continue
		}
		var bestCreate, bestPub time.Duration
		var bestQPS float64
		for run := 0; run < s.Runs; run++ {
			create, pub, qps, err := runManyViewsCell(s, n)
			if err != nil {
				return nil, fmt.Errorf("harness: manyviews %d views: %w", n, err)
			}
			if run == 0 || create < bestCreate {
				bestCreate = create
			}
			if run == 0 || pub < bestPub {
				bestPub = pub
			}
			if qps > bestQPS {
				bestQPS = qps
			}
		}
		t.AddRow(itoa(n), ms(bestCreate), ms(bestPub), f2(bestQPS))
		s.logf("manyviews: %d views done", n)
	}
	return t, nil
}

// runManyViewsCell measures one view-count cell on a fresh engine.
func runManyViewsCell(s Scale, n int) (create, pub time.Duration, qps float64, err error) {
	col, err := newFig4Column(s, "linear")
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { _ = col.Close() }() //asv:ignore-err benchmark teardown; measurement errors are returned separately

	cfg := core.DefaultConfig()
	cfg.MaxViews = n
	eng, err := core.NewEngine(col, cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { _ = eng.Close() }() //asv:ignore-err benchmark teardown; measurement errors are returned separately

	width := uint64(fig4Domain) / uint64(n)
	ranges := make([]core.ViewSpec, n)
	for i := range ranges {
		lo := uint64(i) * width
		hi := lo + width - 1
		if i == n-1 {
			hi = fig4Domain
		}
		ranges[i] = core.ViewSpec{Lo: lo, Hi: hi, Pinned: true}
	}
	t0 := time.Now()
	if _, err := eng.CreateViewsOpt(ranges); err != nil {
		return 0, 0, 0, err
	}
	create = time.Since(t0)

	// First reads: one pinned-snapshot query per freshly created
	// (never yet read) view.
	snap, err := eng.Snapshot()
	if err != nil {
		return 0, 0, 0, err
	}
	t1 := time.Now()
	for _, r := range ranges {
		if _, err := snap.QueryOpt(r.Lo+width/4, r.Hi-width/4, core.QueryOptions{}); err != nil {
			_ = snap.Close() //asv:ignore-err Snapshot.Close never returns an error
			return 0, 0, 0, err
		}
	}
	qps = float64(n) / time.Since(t1).Seconds()
	if err := snap.Close(); err != nil {
		return 0, 0, 0, err
	}

	// Publication latency under small touch sets: single-row updates,
	// each flushed (aligned + published) on its own. The warmup round
	// pays the one-time mapping of every lazy view alignment needs; the
	// measured rounds re-capture only the touched views.
	rng := xrand.New(s.Seed + 77)
	writeFlush := func() error {
		row := int(rng.Uint64() % uint64(col.Rows()))
		if err := eng.Update(row, rng.Uint64()%fig4Domain); err != nil {
			return err
		}
		_, err := eng.FlushUpdates()
		return err
	}
	if err := writeFlush(); err != nil {
		return 0, 0, 0, err
	}
	s0 := eng.Stats()
	for i := 0; i < manyViewsPubRounds; i++ {
		if err := writeFlush(); err != nil {
			return 0, 0, 0, err
		}
	}
	s1 := eng.Stats()
	pubs := s1.StatePublishes - s0.StatePublishes
	if pubs == 0 {
		return 0, 0, 0, fmt.Errorf("no publications measured")
	}
	pub = time.Duration((s1.PublishNanos - s0.PublishNanos) / pubs)
	return create, pub, qps, nil
}
