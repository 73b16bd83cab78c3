package harness

import (
	"fmt"
	"time"

	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/vmsim"
	"github.com/asv-db/asv/internal/workload"
)

// fig4Domain is the value domain of the §3.2 experiments ([0, 100M], the
// Figure 2 distributions).
const fig4Domain = 100_000_000

// SequenceResult carries a per-query series plus the accumulated response
// times that feed Table 1.
type SequenceResult struct {
	Table         *Table
	AdaptiveTotal time.Duration
	BaselineTotal time.Duration
}

// newFig4Column builds the §3.2 single-column table over any registered
// distribution (dist.Names). The paper's panels use sine (cycles every
// 100 pages), linear and sparse (90% zero pages — the Figure 2
// parameters); the scenario generators drive the asvbench fig4d-f
// panels beyond the paper.
func newFig4Column(sc Scale, distName string) (*storage.Column, error) {
	kern := vmsim.NewKernel(0)
	as := kern.NewAddressSpace()
	as.SetMaxMapCount(1<<32 - 1)
	col, err := storage.NewColumn(kern, as, "fig4-"+distName, sc.Pages)
	if err != nil {
		return nil, err
	}
	g, err := dist.ByName(distName, sc.Seed, 0, fig4Domain, sc.Pages)
	if err != nil {
		return nil, err
	}
	// Page-sharded fill: byte-identical to a serial Fill (generators are
	// pure in (seed, page)) but paper-scale columns build at memory speed.
	if err := col.FillParallel(g, 0); err != nil {
		return nil, err
	}
	return col, nil
}

// RunFig4 reproduces one panel of Figure 4 (adaptive query processing in
// single-view mode; distName is any dist.Names entry — the paper's
// panels are sine, linear and sparse): a shuffled
// sequence of queries whose selected range shrinks from half the domain
// down to 5,000, answered by an adaptive engine allowed up to 100 views,
// against a full-scan baseline. Per query it reports the adaptive
// response time, the number of scanned physical pages, and the baseline
// full-scan time.
func RunFig4(sc Scale, distName string) (*SequenceResult, error) {
	sc.logf("fig4(%s): building column (%d pages)", distName, sc.Pages)
	col, err := newFig4Column(sc, distName)
	if err != nil {
		return nil, err
	}
	defer func() { _ = col.Close() }() //asv:ignore-err benchmark teardown; measurement errors are returned separately

	queries := workload.SelectivitySweep(sc.Seed, sc.Queries, fig4Domain, fig4Domain/2, 5000)

	cfg := core.DefaultConfig()
	cfg.MaxViews = 100
	res, err := runSequence(sc, col, cfg, queries, false)
	if err != nil {
		return nil, err
	}
	res.Table.ID = "fig4-" + distName
	res.Table.Title = fmt.Sprintf("Adaptive query processing, single-view mode, %s distribution", distName)
	return res, nil
}

// runSequence fires the query sequence at an adaptive engine and at a
// full-scan baseline over the same column and reports the per-query
// series. reportViews selects the Figure 5 layout (views used per query)
// over the Figure 4 layout (scanned pages per query).
func runSequence(sc Scale, col *storage.Column, cfg core.Config,
	queries []workload.Query, reportViews bool) (*SequenceResult, error) {

	adaptive, err := core.NewEngine(col, cfg)
	if err != nil {
		return nil, err
	}
	defer func() { _ = adaptive.Close() }() //asv:ignore-err benchmark teardown; measurement errors are returned separately
	baseline, err := core.NewEngine(col, core.BaselineConfig())
	if err != nil {
		return nil, err
	}
	defer func() { _ = baseline.Close() }() //asv:ignore-err benchmark teardown; measurement errors are returned separately

	header := []string{"query", "range_width", "adaptive_ms", "scanned_pages", "baseline_ms"}
	if reportViews {
		header = []string{"query", "range_width", "adaptive_ms", "views_used", "baseline_ms"}
	}
	t := &Table{Header: header}

	out := &SequenceResult{Table: t}
	for i, q := range queries {
		t0 := time.Now()
		ra, err := adaptive.QueryOpt(q.Lo, q.Hi, core.QueryOptions{})
		if err != nil {
			return nil, err
		}
		da := time.Since(t0)

		t1 := time.Now()
		rb, err := baseline.QueryOpt(q.Lo, q.Hi, core.QueryOptions{})
		if err != nil {
			return nil, err
		}
		db := time.Since(t1)

		if ra.Count != rb.Count || ra.Sum != rb.Sum {
			return nil, fmt.Errorf("harness: query %d [%d,%d]: adaptive (%d,%d) != baseline (%d,%d)",
				i, q.Lo, q.Hi, ra.Count, ra.Sum, rb.Count, rb.Sum)
		}

		out.AdaptiveTotal += da
		out.BaselineTotal += db
		metric := itoa(ra.PagesScanned)
		if reportViews {
			metric = itoa(ra.ViewsUsed)
		}
		t.AddRow(itoa(i), itoa(int(q.Width())), ms(da), metric, ms(db))

		if sc.Progress != nil && (i+1)%50 == 0 {
			sc.logf("  %d/%d queries (%d views)", i+1, len(queries), adaptive.ViewSet().Len())
		}
	}
	return out, nil
}
