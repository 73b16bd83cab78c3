// Package asv is the public API of the adaptive-storage-views library, a
// Go reproduction of "Towards Adaptive Storage Views in Virtual Memory"
// (Schuhknecht & Henneberg, CIDR 2023).
//
// The library fuses coarse-granular indexing into the storage layer of an
// in-memory column store: each column is materialized once as physical
// memory (on a simulated main-memory file), and virtual storage views —
// virtual-memory areas mapping page-wise onto subsets of the column — act
// as the index. Partial views are created adaptively as a side product of
// query processing; queries are routed automatically to the most fitting
// view(s); batched updates realign the views.
//
// Quick start:
//
//	db, _ := asv.Open(asv.Options{})
//	defer db.Close()
//	col, _ := db.CreateColumn("readings", 4096, asv.DefaultConfig())
//	col.Fill(asv.Uniform(1, 0, 100_000_000))
//	res, _ := col.QueryOpt(1_000_000, 2_000_000)   // views appear as you query
//	fmt.Println(res.Count, res.PagesScanned)
//
// The heavy lifting lives in the internal packages (vmsim, storage, view,
// viewset, core); this package wires them together behind a stable
// surface.
package asv

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/asv-db/asv/internal/autopilot"
	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/vmsim"
)

// PageSize is the page granularity of the storage layer (4 KiB).
const PageSize = storage.PageSize

// ValuesPerPage is the number of 8-byte values a column page holds.
const ValuesPerPage = storage.ValuesPerPage

// Mode selects how queries are routed to views (§2.1 of the paper).
type Mode = core.Mode

// Routing modes.
const (
	// SingleView answers each query from exactly one fully-covering view.
	SingleView = core.SingleView
	// MultiView stitches multiple partial views when they jointly cover
	// the query range.
	MultiView = core.MultiView
)

// Config tunes a column's adaptive layer; see DefaultConfig.
type Config = core.Config

// DefaultConfig returns the paper's configuration: single-view routing, up
// to 100 partial views, zero discard/replacement tolerance, and both
// view-creation optimizations (consecutive-run mapping, background mapping
// thread) enabled.
func DefaultConfig() Config { return core.DefaultConfig() }

// BaselineConfig returns a configuration that answers every query with a
// full column scan and never creates views — useful for comparisons.
func BaselineConfig() Config { return core.BaselineConfig() }

// Result is the answer to a range query plus routing telemetry.
type Result = core.QueryResult

// UpdateReport is the cost breakdown of one view-alignment run.
type UpdateReport = core.UpdateStats

// EngineStats are cumulative per-column counters.
type EngineStats = core.Stats

// Options configures a DB instance.
type Options struct {
	// MaxMemoryPages caps simulated physical memory in 4 KiB pages
	// (<= 0 selects 4 Mi pages = 16 GiB).
	MaxMemoryPages int
	// MaxMappings caps the number of virtual memory areas per DB, the
	// analogue of vm.max_map_count. The paper raises the kernel default to
	// 2^32-1; Open does the same when this is 0.
	MaxMappings int
}

// DB owns a simulated kernel and one address space in which all columns,
// tables and their views live.
//
// A DB is safe for concurrent use, including its catalog: CreateColumn,
// CreateTable, LoadColumn, Column, Table and Close serialize on an
// internal mutex, so schemas may grow online from any number of
// goroutines. Each created Column is itself fully safe for concurrent
// use, including across columns sharing this DB's kernel.
type DB struct {
	kernel *vmsim.Kernel
	space  *vmsim.AddressSpace

	// mu guards the catalog maps; column/table data paths never take it.
	mu      sync.Mutex
	columns map[string]*Column
	tables  map[string]*Table
}

// Open creates an empty DB.
func Open(opts Options) (*DB, error) {
	k := vmsim.NewKernel(opts.MaxMemoryPages)
	as := k.NewAddressSpace()
	maxMaps := opts.MaxMappings
	if maxMaps <= 0 {
		maxMaps = 1<<32 - 1
	}
	as.SetMaxMapCount(maxMaps)
	return &DB{
		kernel:  k,
		space:   as,
		columns: make(map[string]*Column),
		tables:  make(map[string]*Table),
	}, nil
}

// CreateColumn materializes a column of numPages pages (numPages ×
// ValuesPerPage rows, zero-initialized) and wraps it in an adaptive
// storage layer. Safe for concurrent callers; the catalog mutex is held
// across the materialization so a duplicate name can never slip in
// between check and insert.
func (db *DB) CreateColumn(name string, numPages int, cfg Config) (*Column, error) {
	return db.addColumn(name, cfg, func() (*storage.Column, error) {
		return storage.NewColumn(db.kernel, db.space, name, numPages)
	})
}

// addColumn registers a column whose storage newCol materializes: the
// duplicate check, the materialization, the engine and the insert all run
// under the catalog mutex.
func (db *DB) addColumn(name string, cfg Config, newCol func() (*storage.Column, error)) (*Column, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.columns[name]; dup {
		return nil, fmt.Errorf("asv: column %q already exists", name)
	}
	c, err := db.newColumn(name, cfg, newCol)
	if err != nil {
		return nil, err
	}
	db.columns[name] = c
	return c, nil
}

// newColumn builds an unregistered column: the storage newCol
// materializes plus its engine. A failed engine unwinds the storage.
func (db *DB) newColumn(name string, cfg Config, newCol func() (*storage.Column, error)) (*Column, error) {
	sc, err := newCol()
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(sc, cfg)
	if err != nil {
		_ = sc.Close() //asv:ignore-err unwinding failed engine construction; the construction error is returned
		return nil, err
	}
	return &Column{db: db, col: sc, eng: eng, name: name}, nil
}

// Column returns a previously created column.
func (db *DB) Column(name string) (*Column, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.columns[name]
	return c, ok
}

// MemoryInUse returns the simulated physical memory currently allocated,
// in bytes.
func (db *DB) MemoryInUse() int {
	return db.kernel.FramesInUse() * PageSize
}

// removeColumn deregisters a column from the catalog (Column.Close calls
// it; a name deleted twice is harmless).
func (db *DB) removeColumn(name string) {
	db.mu.Lock()
	delete(db.columns, name)
	db.mu.Unlock()
}

// Close releases every column, table columns included, and drops every
// table. Columns already closed directly have deregistered themselves
// and are not double-closed.
func (db *DB) Close() error {
	// Snapshot and clear the catalog under the lock, close outside it:
	// Column.Close deregisters itself through the same mutex.
	db.mu.Lock()
	columns := make([]*Column, 0, len(db.columns))
	for name, c := range db.columns {
		columns = append(columns, c)
		delete(db.columns, name)
	}
	clear(db.tables)
	db.mu.Unlock()

	var firstErr error
	for _, c := range columns {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Generator produces column values one page at a time; see Uniform,
// Linear, Sine and Sparse for the distributions used in the paper's
// evaluation.
type Generator = dist.Generator

// Uniform returns a generator drawing each value uniformly from [lo, hi].
func Uniform(seed, lo, hi uint64) Generator { return dist.NewUniform(seed, lo, hi) }

// Linear returns a generator whose values grow linearly with the row
// position across numPages pages — perfectly clustered data.
func Linear(seed, lo, hi uint64, numPages int) Generator {
	return dist.NewLinear(seed, lo, hi, numPages)
}

// Sine returns a generator following a sine wave over the page sequence
// with the given period in pages — periodically clustered data such as
// daily sensor cycles.
func Sine(seed, lo, hi uint64, periodPages int) Generator {
	return dist.NewSine(seed, lo, hi, periodPages)
}

// Sparse returns a generator where zeroFrac of all pages contain only
// zeros and the rest hold uniform values in [lo, hi].
func Sparse(seed, lo, hi uint64, zeroFrac float64) Generator {
	return dist.NewSparse(seed, lo, hi, zeroFrac)
}

// Zipf returns a generator with zipf-skewed value popularity over
// [lo, hi]: low values are drawn far more often than high ones, with the
// given skew exponent — web-style key popularity.
func Zipf(seed, lo, hi uint64, skew float64) Generator {
	return dist.NewZipf(seed, lo, hi, skew)
}

// Hotspot returns a generator where a contiguous hot region covering
// hotFrac of the domain receives hotProb of all values and the rest is
// uniform background.
func Hotspot(seed, lo, hi uint64, hotFrac, hotProb float64) Generator {
	return dist.NewHotspot(seed, lo, hi, hotFrac, hotProb)
}

// Clustered returns a generator where each page's values cluster in a
// window of clusterFrac × the domain around a per-page random center —
// locality without global order.
func Clustered(seed, lo, hi uint64, clusterFrac float64) Generator {
	return dist.NewClustered(seed, lo, hi, clusterFrac)
}

// Shifted returns a generator whose value window slides across the
// domain and wraps every periodPages pages — a sawtooth counterpart to
// Sine.
func Shifted(seed, lo, hi uint64, periodPages int) Generator {
	return dist.NewShifted(seed, lo, hi, periodPages)
}

// GeneratorByName resolves a distribution by name (see GeneratorNames)
// over [lo, hi] for a column of `pages` pages, with scenario knobs at
// their defaults.
func GeneratorByName(name string, seed, lo, hi uint64, pages int) (Generator, error) {
	return dist.ByName(name, seed, lo, hi, pages)
}

// GeneratorNames lists the distributions GeneratorByName resolves.
func GeneratorNames() []string { return dist.Names() }

// ViewInfo describes one partial view of a column.
type ViewInfo struct {
	Lo, Hi uint64 // covered value range (inclusive)
	Pages  int    // physical pages indexed
}

// Column is a physical column with its adaptive view layer.
//
// A Column is safe for concurrent use: any number of goroutines may call
// QueryOpt simultaneously, and any number may call Update/UpdateBatch
// simultaneously (writers append to page-sharded buffers and only
// serialize per page group). A query pins the currently published epoch
// and takes no lock, so writers never stall it; only a query that finds
// pending writes first flushes them, exclusively, like FlushUpdates,
// CreateViewOpt and RebuildViews. Columns of one DB are independent —
// concurrent work on different columns only meets at the simulated
// kernel, which has its own locks.
type Column struct {
	db     *DB
	col    *storage.Column
	eng    *core.Engine
	name   string
	closed atomic.Bool
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// NumPages returns the column length in pages.
func (c *Column) NumPages() int { return c.col.NumPages() }

// Rows returns the number of value slots.
func (c *Column) Rows() int { return c.col.Rows() }

// Fill populates the column from a generator.
func (c *Column) Fill(g Generator) error { return c.col.Fill(g) }

// FillParallel populates the column from a generator with page-sharded
// workers (one per CPU). Generators are pure functions of (seed, page),
// so the result is byte-identical to Fill — just faster on large columns.
func (c *Column) FillParallel(g Generator) error { return c.col.FillParallel(g, 0) }

// Value reads one row.
func (c *Column) Value(row int) (uint64, error) { return c.col.Value(row) }

// Update overwrites one row through the full view and buffers the change
// for the next FlushUpdates. Concurrent Update callers proceed in
// parallel: the write path is sharded by physical page (GOMAXPROCS
// shards), so writers only serialize against queries — and against each
// other when they touch the same page group.
//
// On a column opened with WithAutopilot, Update is fire-and-forget: it
// queues the write and returns immediately; the autopilot applies and
// aligns it within the configured MaxFlushLatency. Use Sync when you
// need a read-your-writes barrier.
func (c *Column) Update(row int, value uint64) error { return c.eng.Update(row, value) }

// RowWrite is one row overwrite of an UpdateBatch call.
type RowWrite = core.RowWrite

// UpdateBatch applies a group of writes as one unit — group commit for
// the write path. Semantically identical to calling Update per element
// in order, but the group is admitted past concurrent readers once,
// which is substantially faster under mixed read/write load.
func (c *Column) UpdateBatch(writes []RowWrite) error { return c.eng.UpdateBatch(writes) }

// FlushUpdates realigns all partial views with the buffered updates.
func (c *Column) FlushUpdates() (UpdateReport, error) { return c.eng.FlushUpdates() }

// RebuildViews recreates every partial view from scratch over its
// declared range, keeping the views' order and pinned flags. It is
// all-or-nothing: every replacement is built in one column pass before
// any old view is released, so on a build error the views, the
// buffered updates and the mappings are exactly as before the call.
// The old and the new views are therefore mapped side by side for a
// moment: under a tight Options.MaxMappings the rebuild needs room for
// both sets. A release error after the swap is reported, but every
// range is already rebuilt by then.
func (c *Column) RebuildViews() error { return c.eng.RebuildViews() }

// Views lists the current partial views.
func (c *Column) Views() []ViewInfo { return viewInfos(c.eng) }

// viewInfos lists an engine's current partial views.
func viewInfos(eng *core.Engine) []ViewInfo {
	vs := eng.Views()
	out := make([]ViewInfo, len(vs))
	for i, v := range vs {
		out[i] = ViewInfo{Lo: v.Lo(), Hi: v.Hi(), Pages: v.NumPages()}
	}
	return out
}

// Stats returns the column's cumulative engine counters.
func (c *Column) Stats() EngineStats { return c.eng.Stats() }

// Close releases the views and the column storage and deregisters the
// column from the DB catalog, so the name becomes reusable. Close blocks
// until every Snapshot taken from the column has been closed. With an
// autopilot, Close returns the error of a background flush that no Sync
// reported. Double-close is a no-op, and a column closed directly is
// skipped (not double-closed) by a later DB.Close.
func (c *Column) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.db.removeColumn(c.name)
	return c.release()
}

// release closes the engine, then the storage, and returns the first
// error.
func (c *Column) release() error {
	firstErr := c.eng.Close()
	if err := c.col.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// CreateOptions re-exports the view-creation optimization switches for
// Config.Create.
type CreateOptions = view.CreateOptions

// AggregateResult summarizes the qualifying values of a range query.
// (The former name Aggregate now constructs the QueryOpt option.)
type AggregateResult = core.Aggregate

// RowSet is a materialized set of qualifying row IDs.
type RowSet = core.RowSet

// ViewRange is one extra [Lo, Hi] of a Batch view-creation option.
type ViewRange struct{ Lo, Hi uint64 }

// WriteTo serializes the column's data pages (views are an adaptive cache
// and are not persisted).
func (c *Column) WriteTo(w io.Writer) (int64, error) { return c.col.WriteTo(w) }

// Save writes the column to a file.
func (c *Column) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := c.col.WriteTo(f); err != nil {
		_ = f.Close() //asv:ignore-err the write error is returned; closing the ruined file is best-effort
		return err
	}
	return f.Close()
}

// LoadColumn materializes a column previously written with Save/WriteTo
// and wraps it in an adaptive layer. The view set starts empty and regrows
// from the workload.
func (db *DB) LoadColumn(name, path string, cfg Config) (*Column, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return db.ReadColumn(name, f, cfg)
}

// ReadColumn is LoadColumn over an arbitrary reader. Safe for concurrent
// callers, like the rest of the catalog.
func (db *DB) ReadColumn(name string, r io.Reader, cfg Config) (*Column, error) {
	return db.addColumn(name, cfg, func() (*storage.Column, error) {
		return storage.ReadColumn(db.kernel, db.space, name, r)
	})
}

// Predicate is an inclusive range condition on one table column.
type Predicate struct {
	Column string
	Lo, Hi uint64
}

// String renders the predicate.
func (p Predicate) String() string {
	return fmt.Sprintf("%s in [%d, %d]", p.Column, p.Lo, p.Hi)
}

// SelectResult reports a conjunctive table selection along with
// telemetry summed over its predicate scans.
type SelectResult struct {
	Rows         *RowSet
	PagesScanned int // across all predicate scans
	ViewsUsed    int // across all predicate scans
}

// Table is a multi-column table, the paper's Figure 1: a name plus its
// columns in declaration order, each an ordinary catalog Column with its
// own physical column, full view and partial views. Column n of table t
// is registered as "t.n", so db.Column("t.n") and t.Column("n") return
// the same *Column.
type Table struct {
	db   *DB
	name string
	cols []*Column
}

// CreateTable creates a table whose columns each span numPages pages.
// Safe for concurrent callers, like the rest of the catalog: the
// duplicate checks, every column's storage and engine, and the
// registration run under the catalog mutex, and a failure part-way
// releases the columns already built, so no column, table or frame is
// left behind.
func (db *DB) CreateTable(name string, numPages int, columns []string, cfg Config) (*Table, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("asv: table %q needs at least one column", name)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("asv: table %q already exists", name)
	}
	for i, cn := range columns {
		full := name + "." + cn
		if _, dup := db.columns[full]; dup || slices.Contains(columns[:i], cn) {
			return nil, fmt.Errorf("asv: column %q already exists", full)
		}
	}
	t := &Table{db: db, name: name, cols: make([]*Column, 0, len(columns))}
	for _, cn := range columns {
		full := name + "." + cn
		c, err := db.newColumn(full, cfg, func() (*storage.Column, error) {
			return storage.NewColumn(db.kernel, db.space, full, numPages)
		})
		if err != nil {
			for _, built := range t.cols {
				_ = built.release() //asv:ignore-err unwinding partial table construction; the construction error is returned
			}
			return nil, err
		}
		t.cols = append(t.cols, c)
	}
	for _, c := range t.cols {
		db.columns[c.name] = c
	}
	db.tables[name] = t
	return t, nil
}

// Table returns a previously created table.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	return t, ok
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns the column names in declaration order.
func (t *Table) Columns() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = strings.TrimPrefix(c.name, t.name+".")
	}
	return names
}

// Column returns the named column of the table.
func (t *Table) Column(name string) (*Column, bool) {
	full := t.name + "." + name
	for _, c := range t.cols {
		if c.name == full {
			return c, true
		}
	}
	return nil, false
}

// Rows returns the row count (identical across columns).
func (t *Table) Rows() int { return t.cols[0].Rows() }

// Select answers the conjunction (logical AND) of the predicates and
// returns the qualifying row set. Duplicate predicates on the same column
// are intersected like any others.
//
// Every involved column is pinned to a snapshot at one catalog instant
// before the first scan: all predicate evaluations — including several
// predicates on the same column — observe a single consistent epoch per
// column, unmoved by concurrent writers or maintenance. Pinning flushes
// each column's pending updates first, so the snapshot reflects every
// write applied before the Select. Predicates are evaluated one column at
// a time with early exit once the intersection is empty; each evaluation
// still adapts that column's view set as a side product (candidates built
// from the pinned epoch are discarded if alignment ran since).
func (t *Table) Select(preds ...Predicate) (*SelectResult, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("asv: table %q: empty predicate list", t.name)
	}
	// Validate all columns up front so errors do not depend on evaluation
	// order.
	for _, p := range preds {
		if _, ok := t.Column(p.Column); !ok {
			return nil, fmt.Errorf("asv: table %q has no column %q", t.name, p.Column)
		}
	}
	// Pin the involved columns at one instant, in declaration order for
	// determinism.
	snaps := make(map[string]*core.Snapshot)
	defer func() {
		for _, s := range snaps {
			_ = s.Close() //asv:ignore-err Snapshot.Close never returns an error
		}
	}()
	for i, cn := range t.Columns() {
		if !slices.ContainsFunc(preds, func(p Predicate) bool { return p.Column == cn }) {
			continue
		}
		s, err := t.cols[i].eng.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("asv: pinning %s: %w", cn, err)
		}
		snaps[cn] = s
	}
	// Evaluate narrower predicates first: their row sets are (heuristically)
	// smaller, making the early exit more likely. Stable order keeps
	// results deterministic.
	ordered := slices.Clone(preds)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].Hi-ordered[i].Lo < ordered[j].Hi-ordered[j].Lo
	})

	out := &SelectResult{}
	for _, p := range ordered {
		ans, err := snaps[p.Column].QueryOptAdapt(p.Lo, p.Hi, core.QueryOptions{CollectRows: true})
		if err != nil {
			return nil, fmt.Errorf("asv: predicate %s: %w", p, err)
		}
		out.PagesScanned += ans.PagesScanned
		out.ViewsUsed += ans.ViewsUsed
		if out.Rows == nil {
			out.Rows = ans.Rows
		} else {
			out.Rows.Intersect(ans.Rows)
		}
		if out.Rows.Len() == 0 {
			break
		}
	}
	return out, nil
}

// FlushUpdates realigns the views of every column with its pending batch.
func (t *Table) FlushUpdates() error {
	for _, c := range t.cols {
		if _, err := c.FlushUpdates(); err != nil {
			return err
		}
	}
	return nil
}

// Close deregisters the table and closes its columns, each exactly like
// Column.Close. Double-close is a no-op.
func (t *Table) Close() error {
	t.db.mu.Lock()
	if t.db.tables[t.name] == t {
		delete(t.db.tables, t.name)
	}
	t.db.mu.Unlock()
	var firstErr error
	for _, c := range t.cols {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// AutopilotMetrics is a snapshot of an autopilot's cumulative counters.
type AutopilotMetrics = autopilot.Metrics

// FlushInfo describes one coalesced autopilot flush (OnFlush hook).
type FlushInfo = autopilot.FlushInfo

// MaintainReport describes one autopilot maintenance tick (OnMaintain
// hook).
type MaintainReport = autopilot.MaintainReport

// Sync is the column's read-your-writes barrier: it applies every write
// accepted so far (draining the autopilot intake, when one runs) and
// realigns all partial views. Without an autopilot it is FlushUpdates.
func (c *Column) Sync() error {
	_, err := c.eng.Sync()
	return err
}

// QueuedUpdates returns the number of fire-and-forget writes accepted by
// Update but not yet applied (always 0 without an autopilot).
func (c *Column) QueuedUpdates() int { return c.eng.QueuedUpdates() }

// AutopilotMetrics returns the column's autopilot counters; ok is false
// when the column runs without an autopilot.
func (c *Column) AutopilotMetrics() (AutopilotMetrics, bool) {
	p := c.eng.Autopilot()
	if p == nil {
		return AutopilotMetrics{}, false
	}
	return p.Metrics(), true
}

// Telemetry is a point-in-time snapshot of a column's instruments:
// counters, gauges and log₂-bucket histograms, keyed by stable names
// (engine_*, autopilot_*, tier_*, map_*, ...). Snapshots merge
// (Merge) and encode to stable JSON (JSON), so they diff cleanly across
// runs and embed in benchmark artifacts.
type Telemetry = obs.Snapshot

// HistogramSnapshot is one histogram's frozen state inside a Telemetry
// snapshot; Quantile and Mean summarize it.
type HistogramSnapshot = obs.HistogramSnapshot

// QueryTrace is one traced query's span tree (see Trace).
type QueryTrace = obs.Trace

// TraceSpan is one timed region of a traced query.
type TraceSpan = obs.Span

// EngineEvent is one entry drained from the column's event journal.
type EngineEvent = obs.Event

// Telemetry snapshots every instrument of the column: the engine's own
// histograms and counters, the autopilot's (when one runs), the tier's
// (when tiering is enabled) and the simulated address space's. Reading
// the snapshot never blocks queries — every instrument is a lock-free
// atomic the hot paths bump unconditionally.
func (c *Column) Telemetry() Telemetry { return c.eng.Telemetry() }

// Events drains the column's event journal: the newest JournalEvents
// engine events (epoch publications/retirements, autopilot duties, tier
// migration batches, view lifecycle transitions) in sequence order.
// Returns nil when Config.JournalEvents left the journal disabled.
func (c *Column) Events() []EngineEvent { return c.eng.Journal().Events() }

// MemoryStats is a column's tiered-memory readout: per-tier frame
// counts, migration counters and the cumulative simulated cold-access
// stall. On a single-tier column Tiered is false and every page counts
// as hot.
type MemoryStats struct {
	Tiered      bool    // whether a second tier is attached
	Pages       int     // tracked file pages
	HotFrames   int     // pages currently in the hot (DRAM) tier
	ColdFrames  int     // pages currently in the capacity tier
	HotBudget   int     // configured hot-tier frame budget (0 untiered)
	HotFraction float64 // HotFrames / Pages (1 untiered)
	Demotions   uint64  // hot → cold page migrations
	Promotions  uint64  // cold → hot page migrations
	ColdTouches uint64  // page accesses that found the page cold
	StallNanos  uint64  // cumulative simulated cold-access latency, ns
}

// MemoryStats snapshots the column's tier occupancy and migration
// counters. Counters are monotonic; occupancy is advisory under
// concurrent migration (each field is exact at its own read).
func (c *Column) MemoryStats() MemoryStats {
	s, ok := c.eng.TierStats()
	if !ok {
		n := c.NumPages()
		return MemoryStats{Pages: n, HotFrames: n, HotFraction: 1}
	}
	return MemoryStats{
		Tiered:      true,
		Pages:       s.Pages,
		HotFrames:   s.HotFrames,
		ColdFrames:  s.ColdFrames,
		HotBudget:   s.HotBudget,
		HotFraction: s.HotFraction(),
		Demotions:   s.Demotions,
		Promotions:  s.Promotions,
		ColdTouches: s.ColdTouches,
		StallNanos:  s.StallNanos,
	}
}

// QueryAnswer is the unified result of QueryOpt: the telemetry every
// query reports (embedded Result), plus the materializations the options
// asked for — Rows and Agg are nil unless requested.
type QueryAnswer = core.Answer

// QueryOpt answers the inclusive range query [lo, hi] according to the
// options, adapting the view set as a side product:
//
//	ans, err := col.QueryOpt(lo, hi, asv.Rows(), asv.Aggregate())
//	// ans.Count, ans.PagesScanned, ans.Rows, ans.Agg
//
// Reads are epoch-routed and lock-free: the query pins the currently
// published engine state and scans its immutable capture, so alignment,
// rebuilds and autopilot maintenance never stall readers. Updates
// buffered at entry are flushed first; a write racing in afterwards is
// serialized after this query.
func (c *Column) QueryOpt(lo, hi uint64, opts ...QueryOption) (QueryAnswer, error) {
	var o core.QueryOptions
	for _, opt := range opts {
		opt(&o)
	}
	return c.eng.QueryOpt(lo, hi, o)
}

// Snapshot pins the column's current engine epoch and returns a handle
// whose queries all observe exactly that instant — repeatable,
// never-blocking reads. See Column.Snapshot for the semantics.
type Snapshot struct {
	col  *Column
	snap *core.Snapshot
}

// Snapshot pins the current epoch. The snapshot reflects every write
// applied to the column before the call (pending updates are flushed
// first); writes and view maintenance after it are invisible through the
// handle, and its queries never block on writers, alignment or the
// autopilot. What a snapshot does NOT pin: engine statistics, the
// column's catalog registration, and adaptive side effects of other
// readers — it is a read view, not a transaction.
//
// Close the handle when done: an open snapshot keeps its epoch's views
// and page frames alive, and Column.Close blocks until every snapshot is
// closed.
func (c *Column) Snapshot() (*Snapshot, error) {
	s, err := c.eng.Snapshot() //asv:handoff the pin is owned by the returned handle; Snapshot.Close releases it
	if err != nil {
		return nil, err
	}
	return &Snapshot{col: c, snap: s}, nil
}

// QueryOpt answers [lo, hi] from the pinned epoch with options. Identical
// queries on one snapshot return identical answers regardless of
// concurrent writes. Snapshot reads are pure: no candidate views are built
// and no view-set state changes, so the answer's CandidateBuilt is always
// false.
func (s *Snapshot) QueryOpt(lo, hi uint64, opts ...QueryOption) (QueryAnswer, error) {
	var o core.QueryOptions
	for _, opt := range opts {
		opt(&o)
	}
	return s.snap.QueryOpt(lo, hi, o)
}

// Views returns the number of partial views captured by the pinned epoch.
func (s *Snapshot) Views() int { return s.snap.Views() }

// Close releases the pin; idempotent.
func (s *Snapshot) Close() error { return s.snap.Close() }

// CreateViewOpt eagerly builds one partial view over [lo, hi] — plus one
// per Batch range — according to the options, bypassing adaptivity:
//
//	err := col.CreateViewOpt(lo, hi, asv.Lazy(), asv.Pinned())
//	err = col.CreateViewOpt(lo, hi, asv.Batch(more...))
//
// Without options the views follow the column's Config.Create.Lazy and
// are demotable by the tier lifecycle, exactly like adaptively created
// views. All views of one call are built in a single column pass and
// published atomically; on any error nothing is inserted.
func (c *Column) CreateViewOpt(lo, hi uint64, opts ...ViewOption) error {
	var o viewCreateOptions
	for _, opt := range opts {
		opt(&o)
	}
	specs := make([]core.ViewSpec, 0, 1+len(o.extra))
	add := func(lo, hi uint64) {
		specs = append(specs, core.ViewSpec{
			Lo: lo, Hi: hi,
			Lazy: o.lazy, HasLazy: o.hasLazy,
			Pinned: o.pinned,
		})
	}
	add(lo, hi)
	for _, r := range o.extra {
		add(r.Lo, r.Hi)
	}
	_, err := c.eng.CreateViewsOpt(specs)
	return err
}
