package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// beyondFloor is the percentile guard: a percentile is printed only with
// at least this many samples beyond it.
const beyondFloor = 10

// metric is one reported number. Samples is the count it was computed from
// where that is a sample set (latencies, set-ups), 0 for ratios of totals.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// percentile is the nearest-rank q-quantile of the samples, refused when
// fewer than beyondFloor samples lie beyond it.
func percentile(samples []time.Duration, q float64) (time.Duration, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < beyondFloor {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, max(n-rank, 0), beyondFloor)
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank-1], nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// quartile is the i-th quartile as Python's statistics.quantiles(v, n=4)
// gives it (the driver's definition); the value itself for a single one.
func quartile(v []float64, i int) float64 {
	n := len(v)
	if n < 2 {
		return median(v)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	j := min(max(i*(n+1)/4, 1), n-1)
	delta := float64(i*(n+1) - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// env stamps a result with where and on what it was measured.
type env struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func stamp() env {
	e := env{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	// The driver's checkout is not a git repository; the ceiling keeps git
	// from reporting some repository further up instead.
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	return e
}

// maxWindows caps the windows a phase is cut into.
const maxWindows = 512

// windows cuts a phase of length wall into windows and files every sample
// under the window its operation ended in. The windows are adapt_cold's
// repetitions when reps is set — a repetition is not stationary, so it
// must not be cut — and otherwise as many equal spans of time, up to
// maxWindows, as leave each at least perWindow samples on average.
func windows(lat, end []time.Duration, wall time.Duration, reps []time.Duration, perWindow int) (samples [][]time.Duration, spans []time.Duration) {
	bounds := reps
	if len(bounds) < 2 {
		k := min(max(len(lat)/perWindow, 1), maxWindows)
		bounds = make([]time.Duration, k)
		for i := range bounds {
			bounds[i] = wall * time.Duration(i+1) / time.Duration(k)
		}
	}
	samples = make([][]time.Duration, len(bounds))
	spans = make([]time.Duration, len(bounds))
	for i, b := range bounds {
		spans[i] = b
		if i > 0 {
			spans[i] -= bounds[i-1]
		}
	}
	for i, e := range end {
		w := sort.Search(len(bounds)-1, func(j int) bool { return e <= bounds[j] })
		samples[w] = append(samples[w], lat[i])
	}
	return samples, spans
}

// windowedPercentile is the first quartile over windows of each window's
// q-quantile. The host is shared: interference from outside the process
// comes in bursts and only ever slows a window down, so the better quartile
// of the windows estimates the undisturbed system, where the median over
// windows, or a percentile over the whole phase, follows the interference.
// Windows are made large enough for the percentile guard; where a window
// still falls short, fewer are cut.
func windowedPercentile(lat, end []time.Duration, wall time.Duration, reps []time.Duration, q float64) (time.Duration, error) {
	// Four times what the guard needs: a window's percentile is itself an
	// estimate, and the quartile of noisy estimates is a noisy number.
	need := int(math.Ceil(beyondFloor/(1-q))) + 1
	for per := 4 * need; ; per *= 2 {
		samples, _ := windows(lat, end, wall, reps, per)
		values := make([]float64, 0, len(samples))
		var err error
		for _, w := range samples {
			var d time.Duration
			if d, err = percentile(w, q); err != nil {
				break
			}
			values = append(values, float64(d))
		}
		if err == nil {
			return time.Duration(quartile(values, 1)), nil
		}
		if len(samples) == 1 {
			return 0, err
		}
		reps = nil // repetitions too short for this percentile: pool them
	}
}

// windowedRate is the third quartile over windows — the better one, as in
// windowedPercentile — of events per second, each event counting for
// `weight`. perWindow keeps a window long enough that whole write cycles
// falling in or out of it do not decide its rate.
func windowedRate(end []time.Duration, wall time.Duration, reps []time.Duration, weight, perWindow int) float64 {
	samples, spans := windows(end, end, wall, reps, perWindow)
	rates := make([]float64, len(samples))
	for i, w := range samples {
		rates[i] = float64(len(w)*weight) / spans[i].Seconds()
	}
	return quartile(rates, 3)
}

// endToEndMetrics turns the timed pass into the --trace 0 metrics. On
// mixed_update the write metrics come from the interleaved cycles; on the
// read workloads from the write tail. Rates and percentiles are the better
// quartile over windows of the phase.
func endToEndMetrics(p *pass) (map[string]metric, error) {
	writes := p.writes()
	if len(writes.flushLat) == 0 {
		return nil, fmt.Errorf("no flush was measured")
	}
	rowsPerFlush := writes.rowsWritten / len(writes.flushLat)
	out := map[string]metric{
		"setup_s":           {Value: median(p.setups), Samples: len(p.setups)},
		"queries_per_s":     {Value: windowedRate(p.log.queryEnd, p.log.wall, p.log.repEnds, 1, 200), Samples: p.log.queries},
		"update_rows_per_s": {Value: windowedRate(writes.flushEnd, writes.wall, nil, rowsPerFlush, 25), Samples: writes.rowsWritten},
		"mem_sys_mb":        {Value: float64(p.memSys) / (1 << 20)},
	}
	for _, pc := range []struct {
		name  string
		flush bool
		q     float64
	}{
		{"query_p50_ms", false, 0.50},
		{"query_p90_ms", false, 0.90},
		{"flush_p50_ms", true, 0.50},
		{"flush_p90_ms", true, 0.90},
	} {
		// A write phase is stationary even across adapt_cold's repetitions;
		// it is cut by time.
		lat, end, wall, reps := p.log.queryLat, p.log.queryEnd, p.log.wall, p.log.repEnds
		if pc.flush {
			lat, end, wall, reps = writes.flushLat, writes.flushEnd, writes.wall, nil
		}
		d, err := windowedPercentile(lat, end, wall, reps, pc.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pc.name, err)
		}
		out[pc.name] = metric{Value: ms(d), Samples: len(lat)}
	}
	return withUnits(out, endToEnd)
}

// withUnits attaches the declared units and insists that the set of
// metrics is exactly the declared one.
func withUnits(m map[string]metric, defs []metricDef) (map[string]metric, error) {
	if len(m) != len(defs) {
		return nil, fmt.Errorf("have %d metrics, BENCHMARK.json declares %d", len(m), len(defs))
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v.Value)
		}
		v.Unit = d.unit
		m[d.name] = v
	}
	return m, nil
}

// tracedMetrics turns the two prefix passes of --trace 1 into the traced
// part of the per-layer metrics: time shares from the spans, counts from
// the counter deltas, and the cost of tracing itself.
func tracedMetrics(untraced, traced *pass) map[string]float64 {
	s := attribute(traced.ops())
	d := traced.delta
	writes := traced.writes()
	writeDelta := writes.writeDelta
	queryDelta := d.since(writeDelta) // what the queries did: everything but the write+flush steps
	per := func(n uint64, by int) float64 {
		if by == 0 {
			return 0
		}
		return float64(n) / float64(by)
	}
	q := traced.log.queries
	built := queryDelta.cum[cCreated] + queryDelta.cum[cReplaced] + queryDelta.cum[cDiscarded]
	m := map[string]float64{
		"core.pin_self_share":         s.pin,
		"viewset.route_self_share":    s.route,
		"core.scan_self_share":        s.scan,
		"view.materialize_self_share": s.materialize,
		"core.merge_self_share":       s.merge,
		"core.unattributed_share":     s.unattributed,
		"core.flush_wall_share":       s.flushWall,
		"serve.client_self_share":     s.client,
		"serve.handler_share":         s.handler,
		"obs.trace_overhead_pct": 100 * (float64(untraced.log.queries)/untraced.log.wall.Seconds() -
			float64(q)/traced.log.wall.Seconds()) / (float64(untraced.log.queries) / untraced.log.wall.Seconds()),

		"core.pages_scanned_per_query":        per(uint64(traced.log.pages), q),
		"core.full_view_query_share":          per(uint64(traced.log.full), q),
		"core.views_used_per_query":           per(uint64(traced.log.views), q),
		"core.candidate_kept_share":           per(queryDelta.cum[cCreated]+queryDelta.cum[cReplaced], int(built)),
		"core.publishes_per_kquery":           1000 * per(queryDelta.cum[cPublishes], q),
		"view.views_end":                      float64(d.views),
		"vmsim.mmap_calls_per_query":          per(queryDelta.cum[cMmapCalls], q),
		"vmsim.pages_mapped_per_query":        per(queryDelta.cum[cPagesMapped], q),
		"vmsim.demand_maps_per_query":         per(queryDelta.cum[cDemandMaps], q),
		"vmsim.vma_count_end":                 float64(d.vmas),
		"vmsim.frames_per_user_page":          per(uint64(d.frameBytes), d.userBytes),
		"core.pages_realigned_per_update_row": per(writeDelta.cum[cRealigned], writes.rowsWritten),
		"vmsim.mmap_calls_per_update_row":     per(writeDelta.cum[cMmapCalls], writes.rowsWritten),
	}
	return m
}

// writes is the phase the write metrics come from: the tail of a read
// workload, mixed_update's own cycles.
func (p *pass) writes() *opLog {
	if p.tail != nil {
		return p.tail
	}
	return p.log
}

// ops is every traced operation of the pass, the tail's included.
func (p *pass) ops() []opRecord {
	ops := append([]opRecord(nil), p.log.ops...)
	if p.tail != nil {
		ops = append(ops, p.tail.ops...)
	}
	return ops
}

// sameCounts reports whether two prefix passes did exactly the same work:
// the check that makes a count metric usable as evidence.
func sameCounts(a, b *pass) bool {
	return a.delta == b.delta && a.log.writeDelta == b.log.writeDelta &&
		a.log.pages == b.log.pages && a.log.views == b.log.views && a.log.full == b.log.full
}
