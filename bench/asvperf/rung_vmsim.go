package main

import (
	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/vmsim"
	"github.com/asv-db/asv/internal/xrand"
)

// mapListPages is the length of the scattered page list of the map rung.
const mapListPages = 1024

// rungVmsim times the simulated kernel's own cost: translating and
// fetching every page without filtering it, rewiring a scattered page list
// one page per call and unmapping it, and a full scan through the cold
// tier. tier_stall_share is the one number in simulated time: the stall
// the model charged, as a share of the host wall time of the same scans.
func rungVmsim(l *ladder) error {
	col, err := l.physicalColumn()
	if err != nil {
		return err
	}
	var acc uint64
	fetch, err := medianOf(64, func() error {
		for i := 0; i < l.pages; i++ {
			pg, err := col.PageBytes(i)
			if err != nil {
				return err
			}
			acc += uint64(pg[0])
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.out["vmsim.page_fetch_ns_per_page"] = ns(fetch, l.pages)

	n := min(mapListPages, l.pages)
	list := xrand.New(sub(l.seed, streamLadder, 2)).Perm(l.pages)[:n]
	as, file := col.Space(), col.File()
	mapped, err := medianOf(2*l.sc.ladderReplays+1, func() error {
		addr, err := as.MmapAnon(n)
		if err != nil {
			return err
		}
		for i, p := range list {
			if err := as.MmapFileFixed(addr+vmsim.Addr(i)*vmsim.PageSize, file, p, 1); err != nil {
				return err
			}
		}
		return as.MunmapPages(addr, n)
	})
	if err != nil {
		return err
	}
	l.out["vmsim.map_ns_per_page"] = ns(mapped, n)

	// A baseline engine over the same column with a hot budget of an eighth,
	// every page demoted first: each scan finds seven eighths of it cold.
	cfg := core.BaselineConfig()
	cfg.Tiering = &vmsim.TierConfig{HotFrames: max(1, l.pages/8)}
	eng, err := core.NewEngine(col, cfg)
	if err != nil {
		return err
	}
	defer func() {
		_ = eng.Close() //asv:ignore-err benchmark teardown; measurement errors are returned
		_ = col.Close() //asv:ignore-err benchmark teardown; measurement errors are returned
	}()
	for p := 0; p < l.pages; p++ {
		eng.Tier().Demote(p)
	}
	stallBefore := eng.Tier().Stats().StallNanos
	scans := 0
	cold, err := l.perQuery(l.scans, func(q query) error {
		scans++
		ans, err := eng.QueryOpt(q.lo, q.hi, core.QueryOptions{})
		acc += ans.Sum
		return err
	})
	if err != nil {
		return err
	}
	sink += acc
	l.out["vmsim.tier_cold_ns_per_page"] = ns(cold, len(l.scans)*l.pages)
	// perQuery sums medians, one scan per query; the stall counter saw every
	// replay, and the model charges each scan the same.
	stall := float64(eng.Tier().Stats().StallNanos-stallBefore) / float64(scans)
	l.out["vmsim.tier_stall_share"] = stall * float64(len(l.scans)) / float64(cold.Nanoseconds())
	return nil
}
