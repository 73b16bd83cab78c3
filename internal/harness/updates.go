package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/workload"
)

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

// updatesCell is one row of the mixed read/write panel.
type updatesCell struct {
	writers, readers, batch int
}

func updatesCells() []updatesCell {
	var cells []updatesCell
	for _, w := range []int{1, 2, 4} {
		for _, r := range []int{0, 2} {
			for _, b := range []int{256, 2048} {
				cells = append(cells, updatesCell{writers: w, readers: r, batch: b})
			}
		}
	}
	return cells
}

// RunUpdates measures mixed read/write throughput (beyond the paper):
// writer goroutines stream deterministic per-writer updates
// (workload.ConcurrentUpdaters) at one shared engine, flushing every
// `batch` of their own updates, while reader goroutines fire query
// streams at the same engine until the writers finish. Rows sweep writer
// count × reader count × flush batch size. Each row reports the update
// throughput of the single-buffer write path (UpdateShards=1) against
// the sharded write path (UpdateShards=GOMAXPROCS), the rate of view
// pages realigned by update alignment, the reader throughput observed
// while writing, and its degradation against a writer-less run with the
// same reader count. Scan and alignment parallelism are GOMAXPROCS in
// every cell, so the two write-path columns differ only in the pending
// buffers — the serialization point this panel exists to expose.
func RunUpdates(s Scale) (*Table, error) {
	cells := updatesCells()
	t := &Table{
		ID: "updates",
		Title: fmt.Sprintf("Mixed read/write throughput, sine distribution, %d-update streams cycled >= %s, sel %.0f%% reads (GOMAXPROCS=%d)",
			s.MixedUpdates, updatesMinWindow, concurrentSel*100, runtime.GOMAXPROCS(0)),
		Header: []string{"writers", "readers", "batch",
			"single_upds", "sharded_upds", "aligned_pps", "reader_qps", "reader_drop_pct"},
	}

	baselines := map[int]float64{} // readers count -> writer-less qps
	for _, c := range cells {
		base := 0.0
		if c.readers > 0 {
			b, ok := baselines[c.readers]
			if !ok {
				var err error
				b, err = runReaderBaseline(s, c.readers)
				if err != nil {
					return nil, fmt.Errorf("harness: updates baseline %d readers: %w", c.readers, err)
				}
				baselines[c.readers] = b
			}
			base = b
		}

		single, _, _, err := runUpdatesCell(s, c, 1)
		if err != nil {
			return nil, fmt.Errorf("harness: updates %+v single: %w", c, err)
		}
		sharded, pps, qps, err := runUpdatesCell(s, c, 0)
		if err != nil {
			return nil, fmt.Errorf("harness: updates %+v sharded: %w", c, err)
		}

		drop := 0.0
		if base > 0 {
			drop = (1 - qps/base) * 100
		}
		t.AddRow(itoa(c.writers), itoa(c.readers), itoa(c.batch),
			f2(single), f2(sharded), f2(pps), f2(qps), f2(drop))
		s.logf("updates: writers=%d readers=%d batch=%d done", c.writers, c.readers, c.batch)
	}
	return t, nil
}

// updatesEngine builds the cell's column and engine: a sine column with
// a few narrow pre-created views, GOMAXPROCS scan/alignment parallelism,
// and the given pending-buffer shard count (0 = GOMAXPROCS).
func updatesEngine(s Scale, shards int) (*core.Engine, func(), error) {
	return mixedEngine(s, func(cfg *core.Config) { cfg.UpdateShards = shards })
}

// mixedEngine builds the mixed read/write panels' standard engine — sine
// column, narrow pre-created views, GOMAXPROCS parallelism — with a
// config mutator for the cell's knob of interest.
func mixedEngine(s Scale, mutate func(*core.Config)) (*core.Engine, func(), error) {
	col, err := newFig4Column(s, "sine")
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Parallelism = -1
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

// runUpdatesCell runs one (writers, readers, batch) cell against the
// given shard count over s.Runs repetitions on fresh engines, returning
// the best observed update throughput with its aligned-pages rate and
// concurrent reader throughput.
func runUpdatesCell(s Scale, c updatesCell, shards int) (upds, pps, qps float64, err error) {
	// Split the cell's stream volume across writers exactly (first rem
	// writers carry one extra update), so the union of one pass over all
	// writer streams is the same s.MixedUpdates writes at every writer
	// count.
	base := s.MixedUpdates / c.writers
	rem := s.MixedUpdates % c.writers
	for run := 0; run < s.Runs; run++ {
		eng, cleanup, err := updatesEngine(s, shards)
		if err != nil {
			return 0, 0, 0, err
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
		)
		start := time.Now()
		for r := 0; r < c.readers; r++ {
			readerWg.Add(1)
			go func(stream []workload.Query) {
				defer readerWg.Done()
				done := 0
				for {
					for _, q := range stream {
						select {
						case <-stop:
							queriesMu.Lock()
							queriesDone += int64(done)
							queriesMu.Unlock()
							return
						default:
						}
						if _, err := eng.QueryOpt(q.Lo, q.Hi, core.QueryOptions{}); err != nil {
							fail(err)
							queriesMu.Lock()
							queriesDone += int64(done)
							queriesMu.Unlock()
							return
						}
						done++
					}
				}
			}(readStreams[r])
		}
		// Writers push group commits of updatesWriteGroup rows: one
		// shared engine-lock hold per group. Lone Update calls would each
		// wait out the concurrent readers' flushes, handing every query a
		// one-update batch to flush, parse and align in full — measuring
		// flush cost, not buffer contention. Each writer cycles its
		// stream until the minimum window elapses, flushing every
		// c.batch of its own updates.
		group := updatesWriteGroup
		if c.batch < group {
			group = c.batch
		}
		var (
			updatesApplied int64
			appliedMu      sync.Mutex
		)
		for w := 0; w < c.writers; w++ {
			writerWg.Add(1)
			go func(stream []workload.PointUpdate) {
				defer writerWg.Done()
				applied, sinceFlush := 0, 0
				defer func() {
					appliedMu.Lock()
					updatesApplied += int64(applied)
					appliedMu.Unlock()
				}()
				buf := make([]core.RowWrite, 0, group)
				for {
					for i := 0; i < len(stream); {
						end := i + group
						if end > len(stream) {
							end = len(stream)
						}
						buf = buf[:0]
						for _, u := range stream[i:end] {
							buf = append(buf, core.RowWrite{Row: u.Row, Value: u.Value})
						}
						if err := eng.UpdateBatch(buf); err != nil {
							fail(err)
							return
						}
						applied += len(buf)
						sinceFlush += len(buf)
						if sinceFlush >= c.batch {
							if _, err := eng.FlushUpdates(); err != nil {
								fail(err)
								return
							}
							sinceFlush = 0
						}
						i = end
					}
					if time.Since(start) >= updatesMinWindow {
						break
					}
				}
				// Final flush; a batch another writer already drained
				// flushes empty, which costs (and counts) nothing.
				if _, err := eng.FlushUpdates(); err != nil {
					fail(err)
				}
			}(streams[w])
		}
		writerWg.Wait()
		writeElapsed := time.Since(start)
		close(stop)
		readerWg.Wait()
		readElapsed := time.Since(start)
		st := eng.Stats()
		cleanup()
		if firstErr != nil {
			return 0, 0, 0, firstErr
		}

		if u := float64(updatesApplied) / writeElapsed.Seconds(); u > upds {
			upds = u
			pps = float64(st.PagesAdded+st.PagesRemoved) / writeElapsed.Seconds()
			qps = float64(queriesDone) / readElapsed.Seconds()
		}
	}
	return upds, pps, qps, nil
}

// runReaderBaseline measures reader throughput with no writers, under
// the same regime as the mixed cells — readers cycle their streams over
// the same minimum window on a fresh sharded-path engine — so the
// degradation column compares warm against warm, not against a cold
// single pass that pays all the adaptive view-creation cost up front.
// The best of s.Runs repetitions is the reference for cells with the
// same reader count.
func runReaderBaseline(s Scale, readers int) (float64, error) {
	var best float64
	for run := 0; run < s.Runs; run++ {
		eng, cleanup, err := updatesEngine(s, 0)
		if err != nil {
			return 0, err
		}
		streams := workload.ConcurrentClients(s.Seed+13, readers+1, updatesReaderStream, fig4Domain, concurrentSel)
		var (
			wg       sync.WaitGroup
			errMu    sync.Mutex
			firstErr error
			queries  int64
			countMu  sync.Mutex
		)
		start := time.Now()
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(stream []workload.Query) {
				defer wg.Done()
				done := 0
				defer func() {
					countMu.Lock()
					queries += int64(done)
					countMu.Unlock()
				}()
				for {
					for _, q := range stream {
						if _, err := eng.QueryOpt(q.Lo, q.Hi, core.QueryOptions{}); err != nil {
							errMu.Lock()
							if firstErr == nil {
								firstErr = err
							}
							errMu.Unlock()
							return
						}
						done++
					}
					if time.Since(start) >= updatesMinWindow {
						return
					}
				}
			}(streams[r])
		}
		wg.Wait()
		elapsed := time.Since(start)
		cleanup()
		if firstErr != nil {
			return 0, firstErr
		}
		if qps := float64(queries) / elapsed.Seconds(); qps > best {
			best = qps
		}
	}
	return best, nil
}
