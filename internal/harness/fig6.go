package harness

import (
	"fmt"
	"math"
	"time"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/vmsim"
)

// fig6Variants are the four creation configurations of Figure 6.
var fig6Variants = []struct {
	name string
	opts view.CreateOptions
}{
	{"no_optimizations", view.CreateOptions{}},
	{"consecutively_mapped", view.CreateOptions{Consecutive: true}},
	{"concurrently_mapped", view.CreateOptions{Concurrent: true}},
	{"both_optimizations", view.CreateOptions{Consecutive: true, Concurrent: true}},
}

// RunFig6 reproduces one panel of Figure 6 (impact of the §2.3
// optimizations on view creation). distName selects the panel:
//
//   - "uniform": uniform values in [0, 100M], view v[0, 100k] — the paper's
//     Figure 6a, indexing ~40% of all pages with short qualifying runs.
//   - "sine": sine over the full uint64 domain, view v[0, 2^63] — Figure
//     6b, indexing ~52% of the pages in long consecutive runs, which is
//     where consecutive-run mapping shines.
//
// It reports the mean creation time per variant plus the number of mmap
// calls issued, which explains the effect.
func RunFig6(sc Scale, distName string) (*Table, error) {
	var g dist.Generator
	var vLo, vHi uint64
	switch distName {
	case "uniform":
		g = dist.NewUniform(sc.Seed, 0, 100_000_000)
		vLo, vHi = 0, 100_000
	case "sine":
		g = dist.NewSine(sc.Seed, 0, math.MaxUint64, 100)
		vLo, vHi = 0, 1<<63
	default:
		return nil, fmt.Errorf("fig6: unknown distribution %q (want uniform or sine)", distName)
	}

	sc.logf("fig6(%s): building column (%d pages)", distName, sc.Pages)
	kern := vmsim.NewKernel(0)
	as := kern.NewAddressSpace()
	as.SetMaxMapCount(1<<32 - 1)
	col, err := storage.NewColumn(kern, as, "fig6-"+distName, sc.Pages)
	if err != nil {
		return nil, err
	}
	defer func() { _ = col.Close() }() //asv:ignore-err benchmark teardown; measurement errors are returned separately
	if err := col.Fill(g); err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "fig6-" + distName,
		Title:  fmt.Sprintf("Impact of optimizations on view creation, %s distribution", distName),
		Header: []string{"variant", "create_ms", "indexed_pages", "mmap_calls"},
	}

	for _, variant := range fig6Variants {
		var mapper *view.Mapper
		if variant.opts.Concurrent {
			mapper = view.NewMapper()
		}
		var times []time.Duration
		var pages int
		var calls uint64
		for r := 0; r < sc.Runs; r++ {
			before := as.Stats().MmapCalls
			t0 := time.Now()
			v, err := view.Create(col, vLo, vHi, variant.opts, mapper)
			if err != nil {
				if mapper != nil {
					mapper.Stop()
				}
				return nil, fmt.Errorf("fig6 %s: %w", variant.name, err)
			}
			times = append(times, time.Since(t0))
			pages = v.NumPages()
			calls = as.Stats().MmapCalls - before
			if err := v.Release(); err != nil {
				if mapper != nil {
					mapper.Stop()
				}
				return nil, err
			}
		}
		if mapper != nil {
			mapper.Stop()
		}
		sc.logf("fig6(%s): %-22s %s ms (%d pages, %d mmap calls)",
			distName, variant.name, ms(avg(times)), pages, calls)
		t.AddRow(variant.name, ms(avg(times)), itoa(pages), itoa(int(calls)))
	}
	return t, nil
}
