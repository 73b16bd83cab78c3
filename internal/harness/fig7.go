package harness

import (
	"fmt"
	"math"
	"time"

	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/vmsim"
	"github.com/asv-db/asv/internal/workload"
)

// RunFig7 reproduces one panel of Figure 7 (update performance as a
// function of batch size). Per the paper's setup: a column over the full
// uint64 domain (uniform for 7a, sine for 7b), five partial views each
// covering a random 1/1024 of the value range, and update batches of
// growing size applied to all views. For each batch size it reports the
// maps-parsing time, the view-update time, pages added/removed, and — as
// the "New" comparison point — the time to rebuild all five views from
// scratch instead.
func RunFig7(sc Scale, distName string) (*Table, error) {
	var mkGen func() dist.Generator
	switch distName {
	case "uniform":
		mkGen = func() dist.Generator { return dist.NewUniform(sc.Seed, 0, math.MaxUint64) }
	case "sine":
		mkGen = func() dist.Generator { return dist.NewSine(sc.Seed, 0, math.MaxUint64, 100) }
	default:
		return nil, fmt.Errorf("fig7: unknown distribution %q (want uniform or sine)", distName)
	}

	viewRanges := workload.RandomSubranges(sc.Seed+7, sc.Fig7Views, math.MaxUint64, 1.0/1024)

	t := &Table{
		ID:    "fig7-" + distName,
		Title: fmt.Sprintf("Update performance vs batch size, %s distribution (%d views)", distName, sc.Fig7Views),
		Header: []string{"batch", "parse_ms", "update_ms", "total_ms",
			"rebuild_ms", "pages_added", "pages_removed", "maps_lines"},
	}

	for _, batch := range sc.Fig7Batches {
		sc.logf("fig7(%s): batch=%d", distName, batch)
		// Fresh column and views per batch size so every point sees the
		// identical starting state.
		kern := vmsim.NewKernel(0)
		as := kern.NewAddressSpace()
		as.SetMaxMapCount(1<<32 - 1)
		col, err := storage.NewColumn(kern, as, "fig7", sc.Pages)
		if err != nil {
			return nil, err
		}
		if err := col.Fill(mkGen()); err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.MaxViews = sc.Fig7Views
		eng, err := core.NewEngine(col, cfg)
		if err != nil {
			return nil, err
		}
		for _, r := range viewRanges {
			if _, err := eng.CreateViewsOpt([]core.ViewSpec{{Lo: r.Lo, Hi: r.Hi, Pinned: true}}); err != nil {
				return nil, err
			}
		}

		// Apply the batch through the engine (writes + buffering).
		ups := workload.UniformUpdates(sc.Seed+uint64(batch), batch, col.Rows(), 0, math.MaxUint64)
		for _, u := range ups {
			if err := eng.Update(u.Row, u.Value); err != nil {
				return nil, err
			}
		}
		st, err := eng.FlushUpdates()
		if err != nil {
			return nil, err
		}

		// The rebuild alternative, timed on the post-update state.
		t0 := time.Now()
		if err := eng.RebuildViews(); err != nil {
			return nil, err
		}
		rebuild := time.Since(t0)

		t.AddRow(itoa(batch), ms(st.ParseDuration), ms(st.AlignDuration),
			ms(st.ParseDuration+st.AlignDuration), ms(rebuild),
			itoa(st.PagesAdded), itoa(st.PagesRemoved), itoa(st.MapsLines))

		if err := eng.Close(); err != nil {
			return nil, err
		}
		if err := col.Close(); err != nil {
			return nil, err
		}
	}
	return t, nil
}
