package main

import (
	"fmt"

	asv "github.com/asv-db/asv"
	"github.com/asv-db/asv/internal/obs"
)

// queryKind is what a query asks to have materialized.
type queryKind uint8

const (
	plain queryKind = iota
	aggregate
	rows
)

// query is one range query of a workload's stream.
type query struct {
	tenant int
	lo, hi uint64
	kind   queryKind
}

// answer is what the benchmark keeps of a reply: the checkable part, the
// routing telemetry the counts are built from, and the span tree of a
// traced query.
type answer struct {
	count        int
	sum          uint64
	pages, views int
	full         bool
	// consistent is false when the requested materialization (aggregate or
	// row IDs) disagrees with count and sum of the same reply.
	consistent bool
	span       *obs.Span
}

// target is the system under test as a workload sees it: an asv.Column
// called in-process, or the HTTP server over loopback. Workloads are op
// scripts over a target, so every workload shares one timing, sampling and
// verification path.
type target interface {
	query(client int, q query, traced bool) (answer, error)
	write(tenant int, ws []asv.RowWrite) error
	flush(tenant int) error
	value(tenant, row int) (uint64, error)
	rowsPerTenant() int
	counters() counters
	close() error
}

// genSpec names a column's contents, so that the oracle can rebuild them.
type genSpec struct {
	dist  string
	seed  uint64
	pages int
}

func (g genSpec) generator() (asv.Generator, error) {
	return asv.GeneratorByName(g.dist, g.seed, 0, domain, g.pages)
}

// Indices of the cumulative counts in counters.cum.
const (
	cQueries = iota
	cFullView
	cPagesScanned
	cCreated
	cReplaced
	cDiscarded
	cPublishes
	cRealigned // view pages added + removed by alignment
	cMmapCalls
	cPagesMapped
	cDemandMaps
	nCum
)

// counters are the counts read at op boundaries from Column.Telemetry
// (which carries Column.Stats as engine_*) and DB.MemoryInUse: cumulative
// activity in cum, and the state at the time of reading beside it.
type counters struct {
	cum [nCum]uint64

	views, vmas           int
	frameBytes, userBytes int
}

// since returns the activity between two readings, with the later state.
func (c counters) since(o counters) counters {
	for i := range c.cum {
		c.cum[i] -= o.cum[i]
	}
	return c
}

// plus adds the activity of two deltas.
func (c counters) plus(o counters) counters {
	for i := range c.cum {
		c.cum[i] += o.cum[i]
	}
	return c
}

// engineCounters reads the engine_* part, which sums correctly across the
// shards of a sharded column.
func engineCounters(tel asv.Telemetry) counters {
	c := tel.Counters
	var out counters
	out.cum[cQueries] = c["engine_queries"]
	out.cum[cFullView] = c["engine_full_view_queries"]
	out.cum[cPagesScanned] = c["engine_pages_scanned"]
	out.cum[cCreated] = c["engine_views_created"]
	out.cum[cReplaced] = c["engine_views_replaced"]
	out.cum[cDiscarded] = c["engine_views_discarded"]
	out.cum[cPublishes] = c["engine_state_publishes"]
	out.cum[cRealigned] = c["engine_pages_added"] + c["engine_pages_removed"]
	return out
}

// Prebuilt option lists: a query adds no allocation of the benchmark's own
// to the call it times. asv.Trace() makes its span tree when applied, so
// the one option value serves every traced call.
var (
	kindOpts   = [...][]asv.QueryOption{plain: nil, aggregate: {asv.Aggregate()}, rows: {asv.Rows()}}
	tracedOpts = [...][]asv.QueryOption{plain: {asv.Trace()}, aggregate: {asv.Aggregate(), asv.Trace()}, rows: {asv.Rows(), asv.Trace()}}
)

// colTarget is one asv.Column in its own DB, called in-process.
type colTarget struct {
	db  *asv.DB
	col *asv.Column
}

func newColTarget(cfg asv.Config, g genSpec) (*colTarget, error) {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		return nil, err
	}
	col, err := db.CreateColumn("c", g.pages, cfg)
	if err == nil {
		var gen asv.Generator
		if gen, err = g.generator(); err == nil {
			err = col.FillParallel(gen)
		}
	}
	if err != nil {
		_ = db.Close() //asv:ignore-err unwinding a failed set-up; the set-up error is returned
		return nil, err
	}
	return &colTarget{db: db, col: col}, nil
}

func (t *colTarget) query(_ int, q query, traced bool) (answer, error) {
	opts := kindOpts[q.kind]
	if traced {
		opts = tracedOpts[q.kind]
	}
	ans, err := t.col.QueryOpt(q.lo, q.hi, opts...)
	if err != nil {
		return answer{}, err
	}
	a := answer{count: ans.Count, sum: ans.Sum, pages: ans.PagesScanned, views: ans.ViewsUsed, full: ans.UsedFullView, consistent: true}
	switch q.kind {
	case aggregate:
		a.consistent = ans.Agg != nil && ans.Agg.Count == ans.Count && ans.Agg.Sum == ans.Sum
	case rows:
		a.consistent = ans.Rows != nil && ans.Rows.Len() == ans.Count
	}
	if ans.Trace != nil {
		a.span = ans.Trace.Root
	}
	return a, nil
}

func (t *colTarget) write(_ int, ws []asv.RowWrite) error { return t.col.UpdateBatch(ws) }

func (t *colTarget) flush(int) error {
	_, err := t.col.FlushUpdates()
	return err
}

func (t *colTarget) value(_, row int) (uint64, error) { return t.col.Value(row) }

func (t *colTarget) rowsPerTenant() int { return t.col.Rows() }

func (t *colTarget) counters() counters {
	tel := t.col.Telemetry()
	c := engineCounters(tel)
	c.cum[cMmapCalls] = tel.Counters["map_mmap_calls"]
	c.cum[cPagesMapped] = tel.Counters["map_pages_mapped"]
	c.cum[cDemandMaps] = tel.Counters["map_demand_maps"]
	c.vmas = int(tel.Gauges["map_vma_count"])
	c.views = len(t.col.Views())
	c.frameBytes = t.db.MemoryInUse()
	c.userBytes = t.col.NumPages() * asv.PageSize
	return c
}

func (t *colTarget) close() error {
	if err := t.db.Close(); err != nil {
		return fmt.Errorf("closing column: %w", err)
	}
	return nil
}
