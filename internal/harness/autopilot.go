package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/asv-db/asv/internal/autopilot"
	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/workload"
)

// autopilotFlushEvery is how many of their own updates the caller-side
// write paths (lone, batch) flush after — the group-commit cadence the
// autopilot has to match without any caller cooperation.
const autopilotFlushEvery = 256

// autopilotCoalesce is the autopilot's CoalesceCount in every cell, equal
// to the caller-side flush cadence so the three write paths align the
// same batch volume and differ only in who coalesces.
const autopilotCoalesce = 256

// autopilotCell is one row of the autopilot panel.
type autopilotCell struct {
	latency          time.Duration
	writers, readers int
}

func autopilotCells() []autopilotCell {
	var cells []autopilotCell
	for _, lat := range []time.Duration{time.Millisecond, 5 * time.Millisecond} {
		for _, w := range []int{1, 4} {
			for _, r := range []int{0, 2} {
				cells = append(cells, autopilotCell{latency: lat, writers: w, readers: r})
			}
		}
	}
	return cells
}

// RunAutopilot measures the autopilot's bounded-latency write coalescing
// (beyond the paper): writer goroutines stream deterministic lone Update
// calls at one shared engine while reader goroutines fire query streams,
// sweeping the MaxFlushLatency bound × writer count × reader count. Per
// row it reports three write paths over identical streams — `lone_upds`
// (lone synchronous Updates, one flush per write — the degradation a
// mixed read/write load exposes), `auto_upds` (lone fire-and-forget Updates
// coalesced by the autopilot under the row's latency bound) and
// `batch_upds` (caller-side UpdateBatch group commits, the cooperative
// reference) — plus the autopilot's mean coalesced batch size, its
// p50/p99 flush latency (enqueue → applied + aligned), and the reader
// throughput observed during the autopilot run. The acceptance shape:
// under concurrent readers, auto_upds sits within 2× of batch_upds while
// lone_upds collapses, and flush_p99_ms stays near the latency bound.
func RunAutopilot(s Scale) (*Table, error) {
	t := &Table{
		ID: "autopilot",
		Title: fmt.Sprintf("Autopilot write coalescing, sine distribution, %d-update streams cycled >= %s, sel %.0f%% reads (GOMAXPROCS=%d)",
			s.MixedUpdates, updatesMinWindow, concurrentSel*100, runtime.GOMAXPROCS(0)),
		Header: []string{"lat_budget_us", "writers", "readers",
			"lone_upds", "auto_upds", "batch_upds",
			"coalesce_avg", "flush_p50_ms", "flush_p99_ms", "reader_qps"},
	}
	for _, c := range autopilotCells() {
		lone, err := runAutopilotCell(s, c, pathLone)
		if err != nil {
			return nil, fmt.Errorf("harness: autopilot %+v lone: %w", c, err)
		}
		batch, err := runAutopilotCell(s, c, pathBatch)
		if err != nil {
			return nil, fmt.Errorf("harness: autopilot %+v batch: %w", c, err)
		}
		auto, err := runAutopilotCell(s, c, pathAuto)
		if err != nil {
			return nil, fmt.Errorf("harness: autopilot %+v auto: %w", c, err)
		}
		t.AddRow(itoa(int(c.latency/time.Microsecond)), itoa(c.writers), itoa(c.readers),
			f2(lone.upds), f2(auto.upds), f2(batch.upds),
			f2(auto.coalesce), ms(auto.p50), ms(auto.p99), f2(auto.qps))
		tel := auto.tel
		t.Telemetry = &tel
		s.logf("autopilot: lat=%s writers=%d readers=%d done", c.latency, c.writers, c.readers)
	}
	return t, nil
}

// writePath selects how a cell's writers push their stream.
type writePath int

const (
	pathLone  writePath = iota // lone synchronous Update + periodic flush
	pathAuto                   // lone fire-and-forget Update, autopilot coalesces
	pathBatch                  // caller-side UpdateBatch + periodic flush
)

// autopilotResult is one (cell, path) measurement.
type autopilotResult struct {
	upds     float64
	qps      float64
	coalesce float64
	p50, p99 time.Duration
	tel      obs.Snapshot
}

// runAutopilotCell runs one (latency, writers, readers) cell through one
// write path over s.Runs repetitions on fresh engines, returning the
// best observed update throughput with its reader throughput and (for
// the autopilot path) coalescing/latency telemetry. Throughput counts a
// stream as done only when its writes are applied AND aligned (the
// autopilot path ends with Sync), so the three paths pay the same work.
func runAutopilotCell(s Scale, c autopilotCell, path writePath) (autopilotResult, error) {
	base := s.MixedUpdates / c.writers
	rem := s.MixedUpdates % c.writers
	var best autopilotResult
	for run := 0; run < s.Runs; run++ {
		eng, cleanup, err := mixedEngine(s, func(cfg *core.Config) {
			if path == pathAuto {
				cfg.Autopilot = &autopilot.Config{
					CoalesceCount:   autopilotCoalesce,
					MaxFlushLatency: c.latency,
					// Keep the pinned views: the panel measures
					// coalescing, not lifecycle churn.
					ColdTicks: -1,
				}
			}
		})
		if err != nil {
			return best, err
		}
		streams := workload.ConcurrentUpdaters(s.Seed+9, c.writers, base+1, eng.Column().Rows(), 0, fig4Domain)
		for i := rem; i < c.writers; i++ {
			streams[i] = streams[i][:base]
		}
		readStreams := workload.ConcurrentClients(s.Seed+13, c.readers+1, updatesReaderStream, fig4Domain, concurrentSel)

		var (
			errMu    sync.Mutex
			firstErr error
			fail     = func(err error) {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
			writerWg, readerWg sync.WaitGroup
			stop               = make(chan struct{})
			queriesDone        int64
			queriesMu          sync.Mutex
			updatesApplied     int64
			appliedMu          sync.Mutex
		)
		start := time.Now()
		for r := 0; r < c.readers; r++ {
			readerWg.Add(1)
			go func(stream []workload.Query) {
				defer readerWg.Done()
				done := 0
				defer func() {
					queriesMu.Lock()
					queriesDone += int64(done)
					queriesMu.Unlock()
				}()
				for {
					for _, q := range stream {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := eng.QueryOpt(q.Lo, q.Hi, core.QueryOptions{}); err != nil {
							fail(err)
							return
						}
						done++
					}
				}
			}(readStreams[r])
		}
		for w := 0; w < c.writers; w++ {
			writerWg.Add(1)
			go func(stream []workload.PointUpdate) {
				defer writerWg.Done()
				applied := 0
				defer func() {
					appliedMu.Lock()
					updatesApplied += int64(applied)
					appliedMu.Unlock()
				}()
				if err := runWriterStream(eng, stream, path, start, &applied); err != nil {
					fail(err)
				}
			}(streams[w])
		}
		writerWg.Wait()
		// The autopilot path is fire-and-forget: the stream only counts
		// once Sync has applied and aligned everything queued.
		if path == pathAuto && firstErr == nil {
			if _, err := eng.Sync(); err != nil {
				fail(err)
			}
		}
		writeElapsed := time.Since(start)
		close(stop)
		readerWg.Wait()
		readElapsed := time.Since(start)

		res := autopilotResult{
			upds: float64(updatesApplied) / writeElapsed.Seconds(),
			qps:  float64(queriesDone) / readElapsed.Seconds(),
		}
		if p := eng.Autopilot(); p != nil {
			m := p.Metrics()
			res.coalesce = m.AvgCoalesce()
			h := p.LatencyHistogram()
			res.p50 = time.Duration(h.Quantile(0.50))
			res.p99 = time.Duration(h.Quantile(0.99))
			res.tel = eng.Telemetry()
		}
		cleanup()
		if firstErr != nil {
			return best, firstErr
		}
		if res.upds > best.upds {
			best = res
		}
	}
	return best, nil
}

// runWriterStream cycles one writer's deterministic stream through the
// selected write path until the minimum measurement window elapses,
// counting applied updates. Unlike the `updates` panel (whose group
// commits always finish a pass quickly), the window is checked inside
// the stream too: the lone path under readers degrades to a handful of
// updates per second, and a mandatory full pass would take minutes per
// cell — the throughput ratio is the measurement, not the volume.
func runWriterStream(eng *core.Engine, stream []workload.PointUpdate, path writePath,
	start time.Time, applied *int) error {

	windowOver := func() bool { return time.Since(start) >= updatesMinWindow }
	sinceFlush := 0
	flushMaybe := func(n int) error {
		sinceFlush += n
		if sinceFlush >= autopilotFlushEvery {
			if _, err := eng.FlushUpdates(); err != nil {
				return err
			}
			sinceFlush = 0
		}
		return nil
	}
	var buf []core.RowWrite
loop:
	for {
		switch path {
		case pathLone, pathAuto:
			for i, u := range stream {
				if err := eng.Update(u.Row, u.Value); err != nil {
					return err
				}
				*applied++
				if path == pathLone {
					if err := flushMaybe(1); err != nil {
						return err
					}
				}
				if i%16 == 15 && windowOver() {
					break loop
				}
			}
		case pathBatch:
			for i := 0; i < len(stream); {
				end := i + updatesWriteGroup
				if end > len(stream) {
					end = len(stream)
				}
				buf = buf[:0]
				for _, u := range stream[i:end] {
					buf = append(buf, core.RowWrite{Row: u.Row, Value: u.Value})
				}
				if err := eng.UpdateBatch(buf); err != nil {
					return err
				}
				*applied += len(buf)
				if err := flushMaybe(len(buf)); err != nil {
					return err
				}
				i = end
				if windowOver() {
					break loop
				}
			}
		}
		if windowOver() {
			break
		}
	}
	// Final flush for the synchronous paths; the autopilot path syncs
	// once all writers joined.
	if path != pathAuto {
		if _, err := eng.FlushUpdates(); err != nil {
			return err
		}
	}
	return nil
}
