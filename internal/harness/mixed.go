package harness

import (
	"time"

	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/workload"
)

// concurrentSel is the fixed selectivity of each client's queries (1% of
// the domain — the Figure 5a shape, small enough that partial views pay
// off and large enough that routing matters).
const concurrentSel = 0.01

// updatesViewCount and updatesViewFrac shape the pre-created hot views of
// the mixed read/write panel: a handful of narrow views (the Figure 7
// setup, slightly wider) so update alignment genuinely adds and removes
// view pages instead of finding every page already qualifying.
const (
	updatesViewCount = 4
	updatesViewFrac  = 1.0 / 64
)

// updatesReaderStream is the per-reader query stream length; readers
// cycle their stream until the writers finish, so the length only bounds
// the variety of ranges, not the volume.
const updatesReaderStream = 64

// updatesWriteGroup is the writers' group-commit size: rows pushed per
// UpdateBatch call (capped by the cell's flush batch).
const updatesWriteGroup = 64

// updatesMinWindow is the minimum measurement window of a cell: writers
// cycle their deterministic streams until it elapses, so reader
// throughput is sampled over a real overlap window even at tiny scales
// where one stream pass finishes in microseconds.
const updatesMinWindow = 150 * time.Millisecond

// mixedEngine builds the mixed read/write panels' standard engine — sine
// column, narrow pre-created views — with a config mutator for the
// cell's knob of interest.
func mixedEngine(s Scale, mutate func(*core.Config)) (*core.Engine, func(), error) {
	col, err := newFig4Column(s, "sine")
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := core.NewEngine(col, cfg)
	if err != nil {
		_ = col.Close() //asv:ignore-err unwinding failed engine construction; the construction error is returned
		return nil, nil, err
	}
	cleanup := func() {
		_ = eng.Close() //asv:ignore-err best-effort teardown shared by every exit path
		_ = col.Close() //asv:ignore-err best-effort teardown shared by every exit path
	}
	for _, r := range workload.RandomSubranges(s.Seed+5, updatesViewCount, fig4Domain, updatesViewFrac) {
		if _, err := eng.CreateViewsOpt([]core.ViewSpec{{Lo: r.Lo, Hi: r.Hi, Pinned: true}}); err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	return eng, cleanup, nil
}
