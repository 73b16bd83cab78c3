// Package workload generates the query sequences and update batches of the
// paper's evaluation (§3), deterministically from a seed.
package workload

import (
	"math"

	"github.com/asv-db/asv/internal/xrand"
)

// Query is an inclusive range predicate.
type Query struct {
	Lo, Hi uint64
}

// Width returns the selected value-range width.
func (q Query) Width() uint64 { return q.Hi - q.Lo }

// SelectivitySweep generates the §3.2 single-view workload: n queries
// whose selected value range shrinks step-wise (geometrically) from
// maxWidth down to minWidth over the domain [0, domainHi], each placed at
// a uniform position, then shuffled — "we generate a sequence of 250
// queries which vary the selected value range step-wise from 50M (low
// selectivity) down to 5000 (high selectivity). Before firing, we shuffle
// the generated queries randomly."
func SelectivitySweep(seed uint64, n int, domainHi, maxWidth, minWidth uint64) []Query {
	if n <= 0 || minWidth == 0 || maxWidth < minWidth || maxWidth > domainHi {
		panic("workload: bad selectivity sweep parameters")
	}
	rng := xrand.New(seed)
	qs := make([]Query, n)
	ratio := 1.0
	if n > 1 {
		ratio = math.Pow(float64(minWidth)/float64(maxWidth), 1/float64(n-1))
	}
	w := float64(maxWidth)
	for i := range qs {
		width := uint64(w)
		if width < minWidth {
			width = minWidth
		}
		lo := rng.Uint64n(domainHi - width + 1)
		qs[i] = Query{Lo: lo, Hi: lo + width}
		w *= ratio
	}
	rng.Shuffle(n, func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// FixedSelectivity generates the §3.2 multi-view workload: n queries, each
// selecting a range of selectivity sel (fraction of the value domain
// [0, domainHi]) at a uniform position. "In this experiment, we fix the
// selectivity."
func FixedSelectivity(seed uint64, n int, domainHi uint64, sel float64) []Query {
	if n <= 0 || sel <= 0 || sel > 1 {
		panic("workload: bad fixed-selectivity parameters")
	}
	width := uint64(float64(domainHi) * sel)
	if width == 0 {
		width = 1
	}
	rng := xrand.New(seed)
	qs := make([]Query, n)
	for i := range qs {
		lo := rng.Uint64n(domainHi - width + 1)
		qs[i] = Query{Lo: lo, Hi: lo + width}
	}
	return qs
}

// ConcurrentClients generates the multi-client throughput workload: one
// deterministic query stream per client, all derived from a single seed.
// Client i's stream depends only on (seed, i, n, domainHi, sel) — never on
// how many goroutines consume the streams or in which order they run — so
// a concurrent benchmark fires exactly the same queries as its serial
// re-check. Each stream fixes the selected range width to sel × domainHi
// (the §3.2 fixed-selectivity shape) at per-client uniform positions, so
// every client exercises its own hot ranges and the adaptive layer sees a
// realistic mixed workload.
func ConcurrentClients(seed uint64, clients, n int, domainHi uint64, sel float64) [][]Query {
	if clients <= 0 {
		panic("workload: bad client count")
	}
	out := make([][]Query, clients)
	for i := range out {
		// Decorrelate the per-client seeds with one splitmix64 step; xrand
		// seeds that differ in one increment would otherwise start from
		// correlated streams.
		s := seed + uint64(i)*0x9e3779b97f4a7c15
		out[i] = FixedSelectivity(xrand.Splitmix64(&s), n, domainHi, sel)
	}
	return out
}

// PointUpdate describes one row overwrite to be applied.
type PointUpdate struct {
	Row   int
	Value uint64
}

// ConcurrentUpdaters generates the mixed read/write throughput workload:
// one deterministic update stream per writer, all derived from a single
// seed. Writer i's stream depends only on (seed, i, n, rows, valLo,
// valHi) — never on how many goroutines consume the streams or in which
// order they run — so a concurrent benchmark applies exactly the same
// writes as its serial re-check. Each stream draws n uniform row
// positions with uniform new values in [valLo, valHi] (the §3.1/§3.4
// update shape, per writer).
func ConcurrentUpdaters(seed uint64, writers, n, rows int, valLo, valHi uint64) [][]PointUpdate {
	if writers <= 0 {
		panic("workload: bad writer count")
	}
	out := make([][]PointUpdate, writers)
	for i := range out {
		// Decorrelate the per-writer seeds with one splitmix64 step, like
		// ConcurrentClients: incrementally related xrand seeds would start
		// from correlated streams.
		s := seed + uint64(i)*0x9e3779b97f4a7c15
		out[i] = UniformUpdates(xrand.Splitmix64(&s), n, rows, valLo, valHi)
	}
	return out
}

// UniformUpdates draws n updates at uniformly selected rows with uniform
// new values in [valLo, valHi] — the update streams of §3.1 ("we also
// update 10,000 uniformly selected entries") and §3.4.
func UniformUpdates(seed uint64, n, rows int, valLo, valHi uint64) []PointUpdate {
	if n < 0 || rows <= 0 || valLo > valHi {
		panic("workload: bad update parameters")
	}
	rng := xrand.New(seed)
	out := make([]PointUpdate, n)
	for i := range out {
		out[i] = PointUpdate{
			Row:   rng.Intn(rows),
			Value: rng.Uint64Range(valLo, valHi),
		}
	}
	return out
}

// RandomSubranges draws n value ranges of the given width fraction of
// [0, domainHi] at uniform positions — the five random 1/1024-wide view
// ranges of the §3.4 update experiment.
func RandomSubranges(seed uint64, n int, domainHi uint64, widthFrac float64) []Query {
	if n <= 0 || widthFrac <= 0 || widthFrac > 1 {
		panic("workload: bad subrange parameters")
	}
	width := uint64(float64(domainHi) * widthFrac)
	if width == 0 {
		width = 1
	}
	rng := xrand.New(seed)
	out := make([]Query, n)
	for i := range out {
		lo := rng.Uint64n(domainHi - width + 1)
		out[i] = Query{Lo: lo, Hi: lo + width}
	}
	return out
}
