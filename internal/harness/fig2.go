package harness

import (
	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
)

// RunFig2 renders the clustered data distributions of Figure 2: for the
// first 300 pages of each distribution it reports the per-page mean, min
// and max value — enough to reproduce the plots (linear ramp, 100-page
// sine cycle, sparse spikes).
func RunFig2(sc Scale) *Table {
	const previewPages = 300
	const domainHi = 100_000_000

	gens := []dist.Generator{
		dist.NewLinear(sc.Seed, 0, domainHi, previewPages),
		dist.NewSine(sc.Seed, 0, domainHi, 100),
		dist.NewSparse(sc.Seed, 0, domainHi, 0.9),
	}
	t := &Table{
		ID:    "fig2",
		Title: "Clustered data distributions (per-page value summary)",
		Header: []string{"pageID",
			"linear_mean", "linear_min", "linear_max",
			"sine_mean", "sine_min", "sine_max",
			"sparse_mean", "sparse_min", "sparse_max"},
	}
	buf := make([]uint64, storage.ValuesPerPage)
	for p := 0; p < previewPages; p++ {
		row := []string{itoa(p)}
		for _, g := range gens {
			g.FillPage(p, buf)
			var sum float64
			min, max := buf[0], buf[0]
			for _, v := range buf {
				sum += float64(v)
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
			}
			row = append(row,
				f2(sum/float64(len(buf))),
				itoa(int(min)),
				itoa(int(max)))
		}
		t.AddRow(row...)
	}
	return t
}
