package main

import (
	"time"

	asv "github.com/asv-db/asv"
	"github.com/asv-db/asv/internal/xrand"
)

// queuedRows is how many fire-and-forget writes Sync finds queued.
const queuedRows = 1024

// rungAutopilot times asvd's autopilot write path: Update on a
// WithAutopilot column, which only queues, and Sync, which applies and
// aligns what is queued. The pilot's own triggers are set out of reach, so
// that all queuedRows writes are still queued when Sync runs. No workload
// takes this path yet; the numbers give a later change its before.
func rungAutopilot(l *ladder) error {
	cfg := asv.WithAutopilot(asv.DefaultConfig(), asv.AutopilotConfig{
		CoalesceCount: 1 << 20, CoalesceBytes: 1 << 30, MaxFlushLatency: time.Hour, MaintainInterval: -1,
	})
	inst, err := columnInstance(cfg, l.gen(), sub(l.seed, streamLadder, 5), l.sc.warmQueries, plain)
	if err != nil {
		return err
	}
	t := inst.t.(*colTarget)
	defer func() { _ = t.close() }() //asv:ignore-err benchmark teardown; measurement errors are returned

	r := xrand.New(sub(l.seed, streamLadder, 6))
	var enqueue, syncs []time.Duration
	for i := 0; i < l.sc.ladderReplays; i++ {
		start := time.Now()
		for j := 0; j < queuedRows; j++ {
			if err := t.col.Update(r.Intn(t.col.Rows()), r.Uint64Range(0, domain)); err != nil {
				return err
			}
		}
		queued := time.Now()
		if err := t.col.Sync(); err != nil {
			return err
		}
		enqueue, syncs = append(enqueue, queued.Sub(start)), append(syncs, time.Since(queued))
	}
	l.out["autopilot.enqueue_ns_per_row"] = ns(mid(enqueue), queuedRows)
	l.out["autopilot.sync_ms"] = ms(mid(syncs))
	return nil
}
