// Package serve is the network front end of the library: a
// zero-dependency HTTP/JSON server (server.go, handlers.go) over
// per-tenant DB catalogs (tenant.go) and a sharding layer (this file)
// that splits one logical column across N independent engine instances
// and scatter-gathers queries back into single-engine answers.
//
// The shard layer is the first multi-process-shaped seam of the system:
// every shard is a complete adaptive column (its own view set, epoch
// chain, autopilot), so a sharded tenant behaves like N cooperating
// engines behind one logical surface. The correctness contract is
// strict — a scatter-gathered answer must be byte-identical to the
// answer a single engine over the same data would give (pinned by
// TestShardScatterGatherEquivalence over every generator), exactly the
// fidelity argument the related Virtuoso work makes for simulated
// layers: measured, not assumed.
package serve

import (
	"fmt"
	"strings"
	"sync"

	asv "github.com/asv-db/asv"
	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/obs"
)

// Partitioning selects how a logical column's pages spread across the
// shards.
type Partitioning int

const (
	// RangeParts assigns each shard one contiguous page range — shard i
	// owns pages [start_i, start_i+count_i). Neighbouring rows stay
	// colocated, so range scans concentrate on few shards' views.
	RangeParts Partitioning = iota
	// HashParts stripes pages round-robin — shard = page mod N. Load
	// spreads evenly regardless of where the workload's hot rows live.
	HashParts
)

// String names the partitioning for telemetry and error messages.
func (p Partitioning) String() string {
	if p == HashParts {
		return "hash"
	}
	return "range"
}

// PartitioningByName resolves "range" or "hash".
func PartitioningByName(name string) (Partitioning, error) {
	switch name {
	case "", "range":
		return RangeParts, nil
	case "hash":
		return HashParts, nil
	}
	return 0, fmt.Errorf("serve: unknown partitioning %q (known: range, hash)", name)
}

// ShardedColumn is one logical column of `pages` pages split across N
// engine instances. Reads scatter to every shard and gather into the
// single-engine answer shape; writes route to the owning shard; a
// snapshot pins one epoch per shard at a single logical instant.
//
// A ShardedColumn is safe for concurrent use with the same rules as
// asv.Column: queries, updates and snapshots may race freely. Close
// blocks until every ShardSnapshot taken from it has been closed (the
// per-shard columns drain their pins).
type ShardedColumn struct {
	name   string
	part   Partitioning
	pages  int
	rows   int
	shards []*asv.Column
	counts []int // pages per shard

	// snapmu orders snapshots against write admission: Update/UpdateBatch
	// hold it shared, Snapshot holds it exclusively while draining and
	// pinning every shard — so no write lands between the first and last
	// per-shard pin and the N pins form one logical instant.
	snapmu sync.RWMutex
}

// NewShardedColumn materializes a logical column of `pages` pages as
// `shards` columns in db (named "<name>/shard<i>", each with its own
// engine built from cfg) and returns the scatter-gather wrapper. The
// pages split as evenly as the partitioning allows (sizes differ by at
// most one page); shards must not exceed pages. On error nothing is left
// registered in db.
func NewShardedColumn(db *asv.DB, name string, pages, shards int, part Partitioning, cfg asv.Config) (*ShardedColumn, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("serve: column %q needs at least one page", name)
	}
	if shards <= 0 || shards > pages {
		return nil, fmt.Errorf("serve: column %q: shard count %d out of range [1, %d pages]", name, shards, pages)
	}
	c := &ShardedColumn{
		name:   name,
		part:   part,
		pages:  pages,
		rows:   pages * asv.ValuesPerPage,
		shards: make([]*asv.Column, 0, shards),
		counts: make([]int, shards),
	}
	base, rem := pages/shards, pages%shards
	for i := 0; i < shards; i++ {
		c.counts[i] = base
		if i < rem {
			c.counts[i]++
		}
	}
	for i := 0; i < shards; i++ {
		col, err := db.CreateColumn(fmt.Sprintf("%s/shard%d", name, i), c.counts[i], cfg)
		if err != nil {
			for _, prev := range c.shards {
				_ = prev.Close() //asv:ignore-err unwinding a failed sharded creation; the creation error is returned
			}
			return nil, err
		}
		c.shards = append(c.shards, col)
	}
	return c, nil
}

// Name returns the logical column name.
func (c *ShardedColumn) Name() string { return c.name }

// NumPages returns the logical column length in pages (summed over the
// shards).
func (c *ShardedColumn) NumPages() int { return c.pages }

// Rows returns the logical number of value slots.
func (c *ShardedColumn) Rows() int { return c.rows }

// Shards returns the shard count.
func (c *ShardedColumn) Shards() int { return len(c.shards) }

// Part returns the page partitioning.
func (c *ShardedColumn) Part() Partitioning { return c.part }

// locatePage maps a global page to (shard, local page) under the
// configured partitioning.
func (c *ShardedColumn) locatePage(p int) (shard, local int) {
	n := len(c.shards)
	if c.part == HashParts {
		return p % n, p / n
	}
	base, rem := c.pages/n, c.pages%n
	head := rem * (base + 1)
	if p < head {
		return p / (base + 1), p % (base + 1)
	}
	p -= head
	return rem + p/base, p % base
}

// globalPage is the inverse of locatePage.
func (c *ShardedColumn) globalPage(shard, local int) int {
	n := len(c.shards)
	if c.part == HashParts {
		return local*n + shard
	}
	base, rem := c.pages/n, c.pages%n
	if shard < rem {
		return shard*(base+1) + local
	}
	return rem*(base+1) + (shard-rem)*base + local
}

// locateRow maps a global row to (shard, local row).
func (c *ShardedColumn) locateRow(row int) (shard, local int) {
	s, lp := c.locatePage(row / asv.ValuesPerPage)
	return s, lp*asv.ValuesPerPage + row%asv.ValuesPerPage
}

// globalRow is the inverse of locateRow.
func (c *ShardedColumn) globalRow(shard, local int) int {
	return c.globalPage(shard, local/asv.ValuesPerPage)*asv.ValuesPerPage + local%asv.ValuesPerPage
}

// remapGen presents a shard's local page sequence as a window into the
// logical column's generator: local page p of shard s reads global page
// mapPage(p). Generators are pure functions of (seed, page), so a
// sharded fill is byte-identical to filling one big column and routing
// each page to its owner.
type remapGen struct {
	g       asv.Generator
	mapPage func(local int) int
}

func (r remapGen) FillPage(page int, out []uint64) { r.g.FillPage(r.mapPage(page), out) }

// Fill populates every shard from the logical generator, page-sharded
// within each shard (FillParallel).
func (c *ShardedColumn) Fill(g asv.Generator) error {
	for i, sc := range c.shards {
		shard := i
		if err := sc.FillParallel(remapGen{g: g, mapPage: func(local int) int {
			return c.globalPage(shard, local)
		}}); err != nil {
			return err
		}
	}
	return nil
}

// Value reads one logical row.
func (c *ShardedColumn) Value(row int) (uint64, error) {
	if row < 0 || row >= c.rows {
		return 0, fmt.Errorf("serve: row %d out of range [0, %d)", row, c.rows)
	}
	s, local := c.locateRow(row)
	return c.shards[s].Value(local)
}

// Update overwrites one logical row, routing to the owning shard. With
// an autopilot configured the write is fire-and-forget exactly like
// asv.Column.Update; Sync is the read-your-writes barrier.
func (c *ShardedColumn) Update(row int, value uint64) error {
	if row < 0 || row >= c.rows {
		return fmt.Errorf("serve: row %d out of range [0, %d)", row, c.rows)
	}
	c.snapmu.RLock()
	defer c.snapmu.RUnlock()
	s, local := c.locateRow(row)
	return c.shards[s].Update(local, value)
}

// UpdateBatch applies a group of logical-row writes, grouped per owning
// shard with each shard's group preserving the caller's order —
// semantically identical to calling Update per element in order (rows of
// different shards are disjoint).
func (c *ShardedColumn) UpdateBatch(writes []asv.RowWrite) error {
	groups := make([][]asv.RowWrite, len(c.shards))
	for _, w := range writes {
		if w.Row < 0 || w.Row >= c.rows {
			return fmt.Errorf("serve: row %d out of range [0, %d)", w.Row, c.rows)
		}
		s, local := c.locateRow(w.Row)
		groups[s] = append(groups[s], asv.RowWrite{Row: local, Value: w.Value})
	}
	c.snapmu.RLock()
	defer c.snapmu.RUnlock()
	for s, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := c.shards[s].UpdateBatch(g); err != nil {
			return err
		}
	}
	return nil
}

// Sync is the logical column's read-your-writes barrier: every shard
// applies its accepted writes and realigns its views.
func (c *ShardedColumn) Sync() error {
	for _, sc := range c.shards {
		if err := sc.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// QueuedUpdates sums the fire-and-forget writes accepted but not yet
// applied across the shards — the backpressure signal the server maps to
// 429s.
func (c *ShardedColumn) QueuedUpdates() int {
	total := 0
	for _, sc := range c.shards {
		total += sc.QueuedUpdates()
	}
	return total
}

// CreateViewOpt forwards the view creation to every shard: each builds
// its own partial view(s) over the value range within its page subset,
// with the same option semantics as asv.Column.CreateViewOpt.
func (c *ShardedColumn) CreateViewOpt(lo, hi uint64, opts ...asv.ViewOption) error {
	for _, sc := range c.shards {
		if err := sc.CreateViewOpt(lo, hi, opts...); err != nil {
			return err
		}
	}
	return nil
}

// Views returns the total partial-view count across the shards.
func (c *ShardedColumn) Views() int {
	total := 0
	for _, sc := range c.shards {
		total += len(sc.Views())
	}
	return total
}

// Telemetry merges every shard's instrument snapshot (counters and
// histogram buckets add; gauges take the last shard's reading). The
// shards live in one address space, whose map_* instruments are reported
// once (see mergeSameSpace).
func (c *ShardedColumn) Telemetry() obs.Snapshot {
	out := obs.NewSnapshot()
	for _, sc := range c.shards {
		out = mergeSameSpace(out, sc.Telemetry())
	}
	return out
}

// mergeSameSpace folds o into s for two constituents of one DB — the
// shards of a column, the columns of a tenant. Their own instruments add.
// The map_* ones are not theirs: each constituent reports the counters of
// the address space they all share, so adding them would count every mmap
// call once per constituent. They are taken from one constituent instead
// — the last merged, whose reading is the newest.
func mergeSameSpace(s, o obs.Snapshot) obs.Snapshot {
	s = s.Merge(o)
	for name, v := range o.Counters {
		if strings.HasPrefix(name, "map_") {
			s.Counters[name] = v
		}
	}
	return s
}

// Close releases every shard. Like asv.DB.Close it returns the first
// error but keeps closing the remaining shards — a failed shard must
// never leak the others' views and frames. Close blocks until every
// ShardSnapshot taken from the column has been closed.
func (c *ShardedColumn) Close() error {
	var firstErr error
	for _, sc := range c.shards {
		if err := sc.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// QueryOpt scatter-gathers the inclusive range query [lo, hi]: every
// shard answers over its page subset (concurrently, each adapting its
// own view set as a side product) and the partial answers gather into
// the single-engine answer shape — counts and wrapping sums add, row
// sets re-base to logical row IDs and merge in domain order, aggregates
// reduce with the storage.PageScan.Merge reducer shape (add the
// distributive parts, keep the tightest boundary on each side), and scan
// telemetry sums. When a trace rides on the options each shard records
// its own span tree, grafted under the logical query's root in shard
// order.
func (c *ShardedColumn) QueryOpt(lo, hi uint64, opts ...asv.QueryOption) (asv.QueryAnswer, error) {
	var o core.QueryOptions
	for _, opt := range opts {
		opt(&o)
	}
	return c.scatter(lo, hi, o, func(i int, so core.QueryOptions) (asv.QueryAnswer, error) {
		return c.shards[i].QueryOpt(lo, hi, rawOptions(so))
	})
}

// Query answers [lo, hi] without materializations — the scatter-gathered
// counterpart of asv.Column.Query.
func (c *ShardedColumn) Query(lo, hi uint64) (asv.Result, error) {
	ans, err := c.QueryOpt(lo, hi)
	return ans.QueryResult, err
}

// rawOptions adapts a resolved core.QueryOptions into the facade's
// option shape, so the per-shard calls go through the same public
// QueryOpt surface the server exposes.
func rawOptions(o core.QueryOptions) asv.QueryOption {
	return func(q *core.QueryOptions) { *q = o }
}

// scatter fans one query out to every shard through `ask` and gathers
// the answers. It is shared by live and snapshot reads, so the two paths
// cannot diverge in merge semantics.
func (c *ShardedColumn) scatter(lo, hi uint64, o core.QueryOptions, ask func(i int, o core.QueryOptions) (asv.QueryAnswer, error)) (asv.QueryAnswer, error) {
	n := len(c.shards)
	answers := make([]asv.QueryAnswer, n)
	errs := make([]error, n)
	traces := make([]*obs.Trace, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			so := o
			if o.Trace != nil {
				// Traces are owned by the coordinating goroutine of one
				// query; give each shard its own tree and graft below.
				so.Trace = obs.NewTrace(fmt.Sprintf("shard%d", i))
				traces[i] = so.Trace
			}
			answers[i], errs[i] = ask(i, so)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return asv.QueryAnswer{}, err
		}
	}
	return c.gather(o, answers, traces), nil
}

// gather folds per-shard answers into the logical answer. Count and Sum
// add (wrapping addition is commutative and associative, so any shard
// order reduces to the single-engine result); rows re-base to logical
// row IDs; aggregates reduce in the storage.PageScan.Merge shape.
func (c *ShardedColumn) gather(o core.QueryOptions, answers []asv.QueryAnswer, traces []*obs.Trace) asv.QueryAnswer {
	var out asv.QueryAnswer
	if o.CollectRows {
		out.Rows = core.NewRowSet(c.rows)
	}
	var agg core.Aggregate
	for i, a := range answers {
		out.Count += a.Count
		out.Sum += a.Sum
		out.PagesScanned += a.PagesScanned
		out.ViewsUsed += a.ViewsUsed
		out.UsedFullView = out.UsedFullView || a.UsedFullView
		out.CandidateBuilt = out.CandidateBuilt || a.CandidateBuilt
		if o.CollectRows && a.Rows != nil {
			shard := i
			a.Rows.ForEach(func(local int) bool {
				out.Rows.Add(c.globalRow(shard, local))
				return true
			})
		}
		if o.ComputeAggregate && a.Agg != nil && a.Agg.Count > 0 {
			// The PageScan.Merge reducer shape: distributive parts add,
			// extrema keep the tightest observed value on each side.
			if agg.Count == 0 || a.Agg.Min < agg.Min {
				agg.Min = a.Agg.Min
			}
			if agg.Count == 0 || a.Agg.Max > agg.Max {
				agg.Max = a.Agg.Max
			}
			agg.Count += a.Agg.Count
			agg.Sum += a.Agg.Sum
		}
	}
	if o.ComputeAggregate {
		out.Agg = &agg
	}
	if o.Trace != nil {
		for _, t := range traces {
			if t != nil {
				t.Finish()
				o.Trace.Root.Children = append(o.Trace.Root.Children, t.Root)
			}
		}
		o.Trace.Root.SetAttr("shards", int64(len(answers)))
		o.Trace.Finish()
		out.Trace = o.Trace
	}
	return out
}

// ShardSnapshot is a pinned-epoch read handle over every shard of a
// ShardedColumn, all pinned at one logical instant: Snapshot drains the
// accepted writes, excludes new write admission, and pins shard by shard
// — so the N per-shard epochs observe exactly the same write prefix.
// Close the handle when done; the shards' Close blocks until every pin
// is released.
type ShardSnapshot struct {
	col   *ShardedColumn
	snaps []*asv.Snapshot
}

// Snapshot pins one epoch per shard at a single logical instant (see
// ShardSnapshot). Writes admitted before the call are visible on every
// shard; writes after it are invisible through the handle.
func (c *ShardedColumn) Snapshot() (*ShardSnapshot, error) {
	c.snapmu.Lock()
	defer c.snapmu.Unlock()
	// Drain first: with an autopilot, accepted-but-unapplied writes would
	// otherwise flush between the per-shard pins and tear the instant.
	for _, sc := range c.shards {
		if err := sc.Sync(); err != nil {
			return nil, err
		}
	}
	snaps := make([]*asv.Snapshot, 0, len(c.shards))
	for _, sc := range c.shards {
		s, err := sc.Snapshot()
		if err != nil {
			for _, prev := range snaps {
				_ = prev.Close() //asv:ignore-err unwinding a failed multi-shard pin; the pin error is returned
			}
			return nil, err
		}
		snaps = append(snaps, s)
	}
	return &ShardSnapshot{col: c, snaps: snaps}, nil
}

// QueryOpt answers [lo, hi] from the pinned instant with the same
// scatter-gather semantics as ShardedColumn.QueryOpt. Snapshot reads are
// pure: no shard adapts its view set.
func (s *ShardSnapshot) QueryOpt(lo, hi uint64, opts ...asv.QueryOption) (asv.QueryAnswer, error) {
	var o core.QueryOptions
	for _, opt := range opts {
		opt(&o)
	}
	return s.col.scatter(lo, hi, o, func(i int, so core.QueryOptions) (asv.QueryAnswer, error) {
		return s.snaps[i].QueryOpt(lo, hi, rawOptions(so))
	})
}

// Query answers [lo, hi] from the pinned instant.
func (s *ShardSnapshot) Query(lo, hi uint64) (asv.Result, error) {
	ans, err := s.QueryOpt(lo, hi)
	return ans.QueryResult, err
}

// Close releases every per-shard pin; idempotent. The first error is
// returned but every pin is released regardless.
func (s *ShardSnapshot) Close() error {
	var firstErr error
	for _, snap := range s.snaps {
		if err := snap.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
