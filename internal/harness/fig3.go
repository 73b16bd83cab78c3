package harness

import (
	"fmt"
	"time"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/explicit"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/vmsim"
	"github.com/asv-db/asv/internal/workload"
)

// fig3Domain is the value domain of the §3.1 column ([0, 100M]).
const fig3Domain = 100_000_000

// fig3Ks are the paper's index-range upper bounds k: the partial view
// indexes all pages containing values in [0, k], yielding index
// selectivities from 0.65% (k=1,250) to 33.55% (k=80,000). These
// selectivities are scale-free (they depend only on k/domain and the page
// capacity), so they carry over to scaled-down columns unchanged.
var fig3Ks = []uint64{1250, 2500, 5000, 10000, 20000, 40000, 80000}

// RunFig3 reproduces Figure 3: query performance of explicit vs virtual
// partial views. For each k it builds all five variants over the same
// uniform column, applies the same 10,000-entry update stream to all of
// them, then measures each variant answering the query [0, k/2].
func RunFig3(sc Scale) (*Table, error) {
	t := &Table{
		ID:    "fig3",
		Title: "Query performance of explicit vs virtual views (runtime per query)",
		Header: []string{"k", "index_selectivity_pct",
			"zonemap_ms", "bitmap_ms", "pagevector_ms", "physical_ms", "virtual_ms"},
	}

	for _, k := range fig3Ks {
		sc.logf("fig3: k=%d", k)
		kern := vmsim.NewKernel(0)
		as := kern.NewAddressSpace()
		as.SetMaxMapCount(1<<32 - 1)
		col, err := storage.NewColumn(kern, as, "fig3", sc.Pages)
		if err != nil {
			return nil, err
		}
		if err := col.Fill(dist.NewUniform(sc.Seed, 0, fig3Domain)); err != nil {
			return nil, err
		}

		mapper := view.NewMapper()
		variants, err := buildFig3Variants(col, k, mapper)
		if err != nil {
			mapper.Stop()
			return nil, err
		}

		// One shared update stream, applied to the column once and
		// reflected into every index.
		ups := workload.UniformUpdates(sc.Seed+k, sc.Fig3Updates, col.Rows(), 0, fig3Domain)
		for _, u := range ups {
			old, err := col.SetValue(u.Row, u.Value)
			if err != nil {
				mapper.Stop()
				return nil, err
			}
			for _, idx := range variants {
				if err := idx.ApplyUpdate(u.Row, old, u.Value); err != nil {
					mapper.Stop()
					return nil, fmt.Errorf("%s: %w", idx.Name(), err)
				}
			}
		}

		// Index selectivity: fraction of pages the (exact) variants index.
		selPages := variants[1].Pages() // bitmap is exact
		row := []string{itoa(int(k)), pct(float64(selPages) / float64(sc.Pages))}

		// The measured query selects [0, k/2] "to select only 50% of the
		// data" indexed.
		qlo, qhi := uint64(0), k/2
		var reference *int
		for _, idx := range variants {
			var times []time.Duration
			var lastCount int
			for r := 0; r < sc.Runs; r++ {
				t0 := time.Now()
				count, _, err := idx.Lookup(qlo, qhi)
				if err != nil {
					mapper.Stop()
					return nil, fmt.Errorf("%s: %w", idx.Name(), err)
				}
				times = append(times, time.Since(t0))
				lastCount = count
			}
			if reference == nil {
				reference = &lastCount
			} else if *reference != lastCount {
				mapper.Stop()
				return nil, fmt.Errorf("fig3: %s disagrees: %d vs %d", idx.Name(), lastCount, *reference)
			}
			row = append(row, ms(avg(times)))
		}
		t.AddRow(row...)

		for _, idx := range variants {
			if err := idx.Release(); err != nil {
				mapper.Stop()
				return nil, fmt.Errorf("fig3: releasing %s: %w", idx.Name(), err)
			}
		}
		mapper.Stop()
		if err := col.Close(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// buildFig3Variants constructs the five §3.1 variants in the fixed column
// order of the result table.
func buildFig3Variants(col *storage.Column, k uint64, mapper *view.Mapper) ([]explicit.Index, error) {
	zm := explicit.NewZoneMap(col, 0, k)
	bm, err := explicit.NewBitmap(col, 0, k)
	if err != nil {
		return nil, err
	}
	pv, err := explicit.NewPageVector(col, 0, k)
	if err != nil {
		return nil, err
	}
	ps, err := explicit.NewPhysicalScan(col, 0, k)
	if err != nil {
		return nil, err
	}
	vv, err := explicit.NewVirtualView(col, 0, k, view.AllOptimizations, mapper)
	if err != nil {
		return nil, err
	}
	return []explicit.Index{zm, bm, pv, ps, vv}, nil
}
