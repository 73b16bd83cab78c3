package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/workload"
)

// concurrentSel is the fixed selectivity of each client's queries (1% of
// the domain — the Figure 5a shape, small enough that partial views pay
// off and large enough that routing matters).
const concurrentSel = 0.01

// concurrentMode is one column of the throughput panel: a routing
// configuration plus the per-query scan parallelism it runs with.
type concurrentMode struct {
	name    string
	cfg     func() core.Config
	workers int // per-query scan workers (0 = serial kernels)
}

func concurrentModes() []concurrentMode {
	return []concurrentMode{
		{"fullscan", core.BaselineConfig, 0},
		{"single", core.DefaultConfig, 0},
		{"multi", func() core.Config {
			c := core.DefaultConfig()
			c.Mode = core.MultiView
			return c
		}, 0},
		// Intra-query parallelism on top of routing: every query scans
		// with GOMAXPROCS page-sharded workers. With many clients this
		// oversubscribes the cores on purpose — the panel shows where
		// inter-query concurrency stops leaving room for intra-query
		// sharding.
		{"single-par", core.DefaultConfig, -1},
	}
}

// RunConcurrent measures multi-client query throughput (beyond the paper):
// N client goroutines fire deterministic per-client query streams
// (workload.ConcurrentClients) at one shared engine, and the cell reports
// accumulated queries per second. Rows sweep the client count; columns
// sweep the routing mode — full-scan baseline, adaptive single-view,
// adaptive multi-view, and single-view with page-sharded parallel scan
// kernels. The total query volume per cell is fixed (s.Queries split
// across clients), so cells are comparable: a flat column means the
// engine's read-lock discipline scales, a falling one means contention.
func RunConcurrent(s Scale) (*Table, error) {
	modes := concurrentModes()
	clientCounts := []int{1, 2, 4, 8}

	header := []string{"clients"}
	for _, m := range modes {
		header = append(header, m.name+"_qps")
	}
	t := &Table{
		ID: "concurrent",
		Title: fmt.Sprintf("Multi-client throughput, sine distribution, sel %.0f%%, %d queries/cell (GOMAXPROCS=%d)",
			concurrentSel*100, s.Queries, runtime.GOMAXPROCS(0)),
		Header: header,
	}

	for _, clients := range clientCounts {
		row := []string{itoa(clients)}
		for _, m := range modes {
			qps, err := runConcurrentCell(s, m, clients)
			if err != nil {
				return nil, fmt.Errorf("harness: concurrent %s/%d clients: %w", m.name, clients, err)
			}
			row = append(row, f2(qps))
		}
		t.AddRow(row...)
		s.logf("concurrent: %d client(s) done", clients)
	}
	return t, nil
}

// runConcurrentCell runs one (mode, client count) cell over s.Runs
// repetitions on fresh engines and returns the best observed throughput
// (best-of-n damps scheduler noise, the usual throughput convention).
func runConcurrentCell(s Scale, m concurrentMode, clients int) (float64, error) {
	// Split s.Queries across clients exactly: the first rem clients run one
	// extra query so every cell executes the volume the table title states.
	// Streams are generated one query longer and truncated — FixedSelectivity
	// draws queries sequentially, so a truncated stream is the same prefix a
	// shorter generation would produce.
	base := s.Queries / clients
	rem := s.Queries % clients
	streams := workload.ConcurrentClients(s.Seed, clients, base+1, fig4Domain, concurrentSel)
	for i := rem; i < clients; i++ {
		streams[i] = streams[i][:base]
	}

	var best float64
	for run := 0; run < s.Runs; run++ {
		col, err := newFig4Column(s, "sine")
		if err != nil {
			return 0, err
		}
		eng, err := core.NewEngine(col, m.cfg())
		if err != nil {
			_ = col.Close() //asv:ignore-err unwinding failed engine construction; the construction error is returned
			return 0, err
		}

		var (
			wg       sync.WaitGroup
			errMu    sync.Mutex
			firstErr error
		)
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(stream []workload.Query) {
				defer wg.Done()
				for _, q := range stream {
					var err error
					if m.workers != 0 {
						_, err = eng.QueryOpt(q.Lo, q.Hi, core.QueryOptions{Workers: m.workers, HasWorkers: true})
					} else {
						_, err = eng.QueryOpt(q.Lo, q.Hi, core.QueryOptions{})
					}
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
				}
			}(streams[c])
		}
		wg.Wait()
		elapsed := time.Since(start)

		closeErr := eng.Close()
		colErr := col.Close()
		if firstErr != nil {
			return 0, firstErr
		}
		if closeErr != nil {
			return 0, closeErr
		}
		if colErr != nil {
			return 0, colErr
		}
		if qps := float64(s.Queries) / elapsed.Seconds(); qps > best {
			best = qps
		}
	}
	return best, nil
}
