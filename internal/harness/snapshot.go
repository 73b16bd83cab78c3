package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/workload"
)

// snapshotMinWindow is the per-cell measurement window: the alignment
// storm and the readers overlap for at least this long.
const snapshotMinWindow = 150 * time.Millisecond

// snapshotWriteGroup is the storm writer's group-commit size; every
// group is flushed immediately, so each group costs one exclusive-lock
// alignment — the "forced alignment storm".
const snapshotWriteGroup = 64

// snapshotPinBatch is how many queries a pinned-snapshot reader answers
// per pin before re-pinning the current epoch.
const snapshotPinBatch = 32

// RunSnapshot measures reader throughput under a forced alignment storm
// (beyond the paper): a writer loops group-committed updates and flushes
// every group, so the engine lock is held exclusively by §2.4 alignment almost
// continuously, while N reader goroutines fire query streams at the same
// engine. Rows sweep the reader count; columns compare epoch readers
// (every query pins the current published state, flushing first) with
// pinned-snapshot readers (Snapshot handles re-pinned every few queries
// — the never-blocking extreme). Neither takes the engine lock.
func RunSnapshot(s Scale) (*Table, error) {
	readerCounts := []int{1, 2, 4, 8}
	t := &Table{
		ID: "snapshot",
		Title: fmt.Sprintf("Reader qps under forced alignment storm, sine distribution, sel %.0f%%, window >= %s (GOMAXPROCS=%d)",
			concurrentSel*100, snapshotMinWindow, runtime.GOMAXPROCS(0)),
		Header: []string{"readers", "epoch_qps", "pinned_qps"},
	}
	for _, readers := range readerCounts {
		epoch, err := runSnapshotCell(s, readers, false)
		if err != nil {
			return nil, fmt.Errorf("harness: snapshot %d readers epoch: %w", readers, err)
		}
		pinned, err := runSnapshotCell(s, readers, true)
		if err != nil {
			return nil, fmt.Errorf("harness: snapshot %d readers pinned: %w", readers, err)
		}
		t.AddRow(itoa(readers), f2(epoch), f2(pinned))
		s.logf("snapshot: %d reader(s) done", readers)
	}
	return t, nil
}

// runSnapshotCell measures one (readers, read path) cell over s.Runs
// repetitions on fresh engines, returning the best observed reader
// throughput while the alignment storm runs.
func runSnapshotCell(s Scale, readers int, pinned bool) (float64, error) {
	var best float64
	for run := 0; run < s.Runs; run++ {
		eng, cleanup, err := mixedEngine(s, nil)
		if err != nil {
			return 0, err
		}
		qps, err := snapshotStorm(s, eng, readers, pinned)
		cleanup()
		if err != nil {
			return 0, err
		}
		if qps > best {
			best = qps
		}
	}
	return best, nil
}

// snapshotStorm runs the storm writer and the readers against eng for at
// least snapshotMinWindow and returns the observed reader throughput.
func snapshotStorm(s Scale, eng *core.Engine, readers int, pinned bool) (float64, error) {
	writes := workload.ConcurrentUpdaters(s.Seed+21, 1, s.MixedUpdates, eng.Column().Rows(), 0, fig4Domain)[0]
	readStreams := workload.ConcurrentClients(s.Seed+23, readers, updatesReaderStream, fig4Domain, concurrentSel)

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
		wg          sync.WaitGroup
		stop        = make(chan struct{})
		queriesDone atomic.Int64
	)
	start := time.Now()

	// The storm: group-commit then flush, every iteration — one
	// exclusive-lock alignment slice per snapshotWriteGroup writes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]core.RowWrite, 0, snapshotWriteGroup)
		for {
			for i := 0; i < len(writes); i += snapshotWriteGroup {
				select {
				case <-stop:
					return
				default:
				}
				end := i + snapshotWriteGroup
				if end > len(writes) {
					end = len(writes)
				}
				buf = buf[:0]
				for _, u := range writes[i:end] {
					buf = append(buf, core.RowWrite{Row: u.Row, Value: u.Value})
				}
				if err := eng.UpdateBatch(buf); err != nil {
					fail(err)
					return
				}
				if _, err := eng.FlushUpdates(); err != nil {
					fail(err)
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(stream []workload.Query) {
			defer wg.Done()
			done := 0
			defer func() { queriesDone.Add(int64(done)) }()
			if !pinned {
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
			}
			// Pinned mode: answer batches from one epoch, then re-pin.
			i := 0
			for {
				snap, err := eng.Snapshot()
				if err != nil {
					fail(err)
					return
				}
				for b := 0; b < snapshotPinBatch; b++ {
					select {
					case <-stop:
						_ = snap.Close() //asv:ignore-err Snapshot.Close never returns an error
						return
					default:
					}
					q := stream[i%len(stream)]
					i++
					if _, err := snap.QueryOpt(q.Lo, q.Hi, core.QueryOptions{}); err != nil {
						fail(err)
						_ = snap.Close() //asv:ignore-err Snapshot.Close never returns an error; the query error was already recorded
						return
					}
					done++
				}
				if err := snap.Close(); err != nil {
					fail(err)
					return
				}
			}
		}(readStreams[r])
	}

	time.Sleep(snapshotMinWindow)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, firstErr
	}
	return float64(queriesDone.Load()) / elapsed.Seconds(), nil
}
