package harness

import (
	"fmt"
	"time"

	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/vmsim"
	"github.com/asv-db/asv/internal/workload"
)

// tieredPageFactor scales the tiered panel's column past the rest of the
// suite: tier migration has to earn its keep at 10x the page count the
// other panels run, so the hot budget is a real constraint rather than a
// rounding error.
const tieredPageFactor = 10

// tieredHotFractions sweeps the hot-tier budget from everything-fits
// down to one frame in eight. The <= 0.5 rows are the interesting ones:
// more than half the column lives on the simulated capacity tier and
// every scan over it pays the configured latency multiplier.
var tieredHotFractions = []float64{1.0, 0.5, 0.25, 0.125}

// RunTiered charts adaptive query throughput against the hot-tier
// fraction (beyond the paper): the fig4 selectivity sweep, answered by
// an adaptive engine whose column starts fully demoted to the simulated
// capacity tier (NVMe/CXL: cold frame accesses charge a latency
// multiplier). Scans promote what they touch back up to the hot budget
// — HotFrames = frac * pages per row — so each cell shows the steady
// state the promote-on-access policy converges to under that budget.
// Every answer is checked byte-identical against an untiered reference
// engine over the same data: tiering only ever costs time, never
// correctness. Cells keep the best of s.Runs repetitions.
func RunTiered(s Scale) (*Table, error) {
	sc := s
	sc.Pages = s.Pages * tieredPageFactor

	queries := workload.SelectivitySweep(sc.Seed, sc.Queries, fig4Domain, fig4Domain/2, 5000)
	sc.logf("tiered: reference run, untiered column (%d pages)", sc.Pages)
	expected, err := tieredReference(sc, queries)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "tiered",
		Title: fmt.Sprintf("Adaptive qps vs hot-tier fraction, sine distribution, %d pages (%dx suite scale), column fully demoted at start",
			sc.Pages, tieredPageFactor),
		Header: []string{"hot_frac", "tiered_qps", "stall_ns", "coldtouch_avg", "promote_avg"},
	}
	for _, frac := range tieredHotFractions {
		var (
			bestQPS float64
			best    vmsim.TierStats
		)
		for run := 0; run < s.Runs; run++ {
			qps, stats, tel, err := runTieredCell(sc, frac, queries, expected)
			if err != nil {
				return nil, fmt.Errorf("harness: tiered frac %g: %w", frac, err)
			}
			if qps > bestQPS {
				bestQPS, best = qps, stats
				t.Telemetry = &tel
			}
		}
		nq := float64(len(queries))
		t.AddRow(
			fmt.Sprintf("%.3f", frac),
			f2(bestQPS),
			fmt.Sprintf("%d", best.StallNanos),
			f2(float64(best.ColdTouches)/nq),
			f2(float64(best.Promotions)/nq),
		)
		sc.logf("tiered: hot fraction %.3f done (%.2f qps)", frac, bestQPS)
	}
	return t, nil
}

// tieredReference answers the query sequence on an untiered engine over
// the same column data and adaptive configuration as the tiered cells,
// returning the per-query answers the cells must reproduce exactly.
func tieredReference(sc Scale, queries []workload.Query) ([]core.QueryResult, error) {
	col, err := newFig4Column(sc, "sine")
	if err != nil {
		return nil, err
	}
	defer func() { _ = col.Close() }() //asv:ignore-err benchmark teardown; measurement errors are returned separately
	eng, err := core.NewEngine(col, tieredPanelConfig())
	if err != nil {
		return nil, err
	}
	defer func() { _ = eng.Close() }() //asv:ignore-err benchmark teardown; measurement errors are returned separately
	out := make([]core.QueryResult, len(queries))
	for i, q := range queries {
		r, err := eng.QueryOpt(q.Lo, q.Hi, core.QueryOptions{})
		if err != nil {
			return nil, err
		}
		out[i] = r.QueryResult
	}
	return out, nil
}

// runTieredCell measures one hot-fraction cell on a fresh column: attach
// a tier with HotFrames = frac * pages, demote every page, then answer
// the sweep and report throughput plus the tier counters and the
// engine's telemetry snapshot. The cell runs with the event journal
// enabled; if a query's answer diverges from the untiered reference,
// the journal is dumped through the Scale's progress writer so the
// engine-event timeline leading up to the divergence survives the
// failure.
func runTieredCell(sc Scale, frac float64, queries []workload.Query, expected []core.QueryResult) (float64, vmsim.TierStats, obs.Snapshot, error) {
	fail := func(err error) (float64, vmsim.TierStats, obs.Snapshot, error) {
		return 0, vmsim.TierStats{}, obs.Snapshot{}, err
	}
	col, err := newFig4Column(sc, "sine")
	if err != nil {
		return fail(err)
	}
	defer func() { _ = col.Close() }() //asv:ignore-err benchmark teardown; measurement errors are returned separately

	hot := int(float64(sc.Pages) * frac)
	if hot < 1 {
		hot = 1
	}
	cfg := tieredPanelConfig()
	cfg.Tiering = &vmsim.TierConfig{HotFrames: hot}
	cfg.JournalEvents = 512
	eng, err := core.NewEngine(col, cfg)
	if err != nil {
		return fail(err)
	}
	defer func() { _ = eng.Close() }() //asv:ignore-err benchmark teardown; measurement errors are returned separately

	tier := eng.Tier()
	for p := 0; p < sc.Pages; p++ {
		tier.Demote(p)
	}

	start := time.Now()
	for i, q := range queries {
		r, err := eng.QueryOpt(q.Lo, q.Hi, core.QueryOptions{})
		if err != nil {
			return fail(err)
		}
		if r.Count != expected[i].Count || r.Sum != expected[i].Sum {
			evs := eng.Journal().Events()
			sc.logf("tiered: equivalence failure at query %d — dumping %d journal events", i, len(evs))
			for _, ev := range evs {
				sc.logf("tiered:   %s", ev)
			}
			return fail(fmt.Errorf(
				"query %d [%d,%d]: tiered (%d,%d) != untiered reference (%d,%d); %d journal events dumped",
				i, q.Lo, q.Hi, r.Count, r.Sum, expected[i].Count, expected[i].Sum, len(evs)))
		}
	}
	elapsed := time.Since(start)
	stats, ok := eng.TierStats()
	if !ok {
		return fail(fmt.Errorf("tiered engine reports no tier stats"))
	}
	return float64(len(queries)) / elapsed.Seconds(), stats, eng.Telemetry(), nil
}

// tieredPanelConfig is the shared adaptive configuration of the
// reference engine and every tiered cell — identical up to Tiering, so
// any answer drift is the tier's fault alone.
func tieredPanelConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxViews = 100
	return cfg
}
