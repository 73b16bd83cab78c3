package main

import (
	"fmt"
	"sort"
	"time"
)

// ladder is the per-layer instrument that needs no workload: one column
// size, one fixed query list, every public boundary timed by itself from
// outside. Each rung lives in its own rung_*.go file and reports itself;
// the overheads of a rung over the rung below are worked out at the end.
type ladder struct {
	sc      scale
	seed    uint64
	pages   int
	queries []query // ladderQueries ranges of queryWidth
	// scans is the prefix of queries replayed by the rungs that read every
	// page per query; the routed rungs, which read a few per cent, replay
	// all of them.
	scans []query
	out   map[string]float64
}

// sink receives every rung's results, so that the compiler cannot discard
// the calls being timed.
var sink uint64

// rungs in ladder order: each layer after the ones it stands on.
var rungs = []struct {
	name string
	run  func(*ladder) error
}{
	{"storage", rungStorage},
	{"vmsim", rungVmsim},
	{"core", rungCore},
	{"view", rungView},
	{"autopilot", rungAutopilot},
	{"serve", rungServe},
}

func runLadder(sc scale, seed uint64) (map[string]float64, error) {
	l := &ladder{sc: sc, seed: seed, pages: sc.ladderPages, out: make(map[string]float64)}
	next := uniformQueries(sub(seed, streamLadder, 0), queryWidth, plain)
	for i := 0; i < sc.ladderQueries; i++ {
		l.queries = append(l.queries, next())
	}
	l.scans = l.queries[:max(1, len(l.queries)/8)]
	for _, r := range rungs {
		if err := r.run(l); err != nil {
			return nil, fmt.Errorf("ladder rung %s: %w", r.name, err)
		}
	}
	o := l.out
	o["storage.fullscan_overhead_ns_per_page"] = o["storage.fullscan_ns_per_page"] - o["storage.scanfilter_ns_per_page"]
	o["core.baseline_overhead_ns_per_page"] = o["core.baseline_ns_per_page"] - o["storage.fullscan_ns_per_page"]
	o["core.routed_overhead_ns_per_page"] = o["core.routed_ns_per_page"] - o["core.baseline_ns_per_page"]
	o["core.routed_over_scanfilter_ratio"] = o["core.routed_ns_per_page"] / o["storage.scanfilter_ns_per_page"]
	o["core.aggregate_overhead_ns_per_page"] = o["core.aggregate_ns_per_page"] - o["core.routed_ns_per_page"]
	o["core.rows_overhead_ns_per_page"] = o["core.rows_ns_per_page"] - o["core.routed_ns_per_page"]
	return o, nil
}

// gen is the ladder's column contents: the same sine column on every rung.
func (l *ladder) gen() genSpec { return genSpec{"sine", sub(l.seed, streamLadder, 1), l.pages} }

// replay times fn ladderReplays times and returns the median.
func (l *ladder) replay(fn func() error) (time.Duration, error) {
	return medianOf(l.sc.ladderReplays, fn)
}

func medianOf(n int, fn func() error) (time.Duration, error) {
	d := make([]time.Duration, n)
	for i := range d {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d[i] = time.Since(start)
	}
	return mid(d), nil
}

// perQuery replays each query and returns the sum of the per-query medians.
func (l *ladder) perQuery(qs []query, fn func(q query) error) (time.Duration, error) {
	var total time.Duration
	for _, q := range qs {
		d, err := l.replay(func() error { return fn(q) })
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

func ns(d time.Duration, per int) float64 { return float64(d.Nanoseconds()) / float64(per) }
func us(d time.Duration, per int) float64 { return ns(d, per) / 1e3 }

// mid is the median of durations measured one by one.
func mid(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}
