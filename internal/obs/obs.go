// Package obs is the repository's zero-dependency telemetry layer: a
// metrics registry of named lock-free instruments (counters, gauges,
// log₂-bucket histograms) with mergeable, stably-JSON-encoded snapshots;
// a per-query span tree (trace.go); and a fixed-size lock-free journal
// of typed engine events (journal.go).
//
// The design contract every consumer relies on:
//
//   - Recording is allocation-free and, except for Journal.Record,
//     wait-free. Counter.Add, Gauge.Set, Histogram.Observe and
//     Journal.Record are a handful of atomic operations — safe on scan
//     kernels and inside critical sections. Journal.Record waits only
//     behind another writer of the same ring slot, which takes the whole
//     ring lapping during that writer's store.
//   - Handles are stored once, bumped everywhere: a *Counter /
//     *Gauge / *Histogram is created through a Registry (or directly)
//     during construction and then only ever dereferenced. Instrument
//     fields must be pointers — copying an instrument value forks its
//     counts, which internal/lint's atomicfield analyzer rejects.
//   - Reading is snapshot-based: Registry.Snapshot (and the engine
//     surfaces built on it) copy every instrument into a plain Snapshot
//     that merges and encodes deterministically (Go's encoding/json
//     sorts map keys), so two snapshots of identical activity are
//     byte-identical.
package obs

import (
	"encoding/json"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 instrument.
type Counter struct{ v atomic.Uint64 }

// Add bumps the counter by d.
func (c *Counter) Add(d uint64) { c.v.Add(d) }

// Inc bumps the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 instrument (occupancy, queue depth).
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count of a log₂ histogram: bucket i
// holds the observations whose value has bit length i — bucket 0 is
// exactly zero, bucket i (i ≥ 1) covers [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a fixed-bucket log₂ histogram. Observe is lock-free and
// allocation-free (three atomic adds); quantiles are estimated from the
// bucket boundaries at snapshot time, which is plenty for the factor-of-
// two questions telemetry answers (did p99 stall time double?).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values (wrapping).
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Snapshot copies the histogram into a plain value. Under concurrent
// Observe the copy is advisory (each field exact at its own read), which
// is the usual contract of statistics counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	last := -1
	var raw [histBuckets]uint64
	for i := range h.buckets {
		raw[i] = h.buckets[i].Load()
		if raw[i] != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append([]uint64(nil), raw[:last+1]...)
	}
	return s
}

// Quantile estimates the q-quantile (0..1) of the live histogram.
func (h *Histogram) Quantile(q float64) uint64 { return h.Snapshot().Quantile(q) }

// HistogramSnapshot is a copied histogram: total count and sum plus the
// log₂ buckets (trailing zero buckets trimmed; bucket i covers values of
// bit length i).
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// bucketUpper returns the largest value bucket i can hold.
func bucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Quantile estimates the q-quantile (0..1) by nearest rank over the
// buckets, reporting the matched bucket's upper bound (an estimate that
// is exact to within the bucket's factor of two). Zero when empty.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q*float64(s.Count) + 0.5)
	if rank == 0 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(len(s.Buckets) - 1)
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// merge adds o's observations into s bucket-wise.
func (s HistogramSnapshot) merge(o HistogramSnapshot) HistogramSnapshot {
	s.Count += o.Count
	s.Sum += o.Sum
	if len(o.Buckets) > len(s.Buckets) {
		s.Buckets = append(s.Buckets, make([]uint64, len(o.Buckets)-len(s.Buckets))...)
	}
	for i, c := range o.Buckets {
		s.Buckets[i] += c
	}
	return s
}

// Registry is a named instrument index: get-or-create by name, snapshot
// all. Lookup takes a mutex, so callers resolve their handles once at
// construction and store the pointers — never per operation.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot copies every registered instrument into a Snapshot.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := NewSnapshot()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Snapshot is a point-in-time copy of a set of instruments, keyed by
// name. It merges (for aggregating subsystems or engine shards) and
// JSON-encodes stably: encoding/json sorts map keys, so identical
// activity yields byte-identical encodings.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// NewSnapshot returns an empty snapshot with initialized maps.
func NewSnapshot() Snapshot {
	return Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
}

// AddCounter accumulates v into the named counter entry.
func (s Snapshot) AddCounter(name string, v uint64) { s.Counters[name] += v }

// SetGauge stores v as the named gauge entry.
func (s Snapshot) SetGauge(name string, v int64) { s.Gauges[name] = v }

// SetHistogram stores h as the named histogram entry, merging with any
// prior entry of the same name.
func (s Snapshot) SetHistogram(name string, h HistogramSnapshot) {
	s.Histograms[name] = s.Histograms[name].merge(h)
}

// Merge folds o into s: counters and histogram buckets add, gauges take
// o's value (last writer wins — gauges are instantaneous readings).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		s.Gauges[name] = v
	}
	for name, h := range o.Histograms {
		s.Histograms[name] = s.Histograms[name].merge(h)
	}
	return s
}

// JSON returns the stable (sorted-key) JSON encoding of the snapshot.
func (s Snapshot) JSON() ([]byte, error) { return json.Marshal(s) }

// String renders the snapshot as an aligned human-readable listing:
// counters and gauges sorted by name, histograms with count, mean and
// the p50/p99 bucket-bound estimates.
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		writeKV(&b, n, formatUint(s.Counters[n]))
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		writeKV(&b, n, formatInt(s.Gauges[n]))
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		writeKV(&b, n, "count="+formatUint(h.Count)+
			" mean="+formatUint(uint64(h.Mean()))+
			" p50<="+formatUint(h.Quantile(0.50))+
			" p99<="+formatUint(h.Quantile(0.99)))
	}
	return b.String()
}

func writeKV(b *strings.Builder, k, v string) {
	b.WriteString("  ")
	b.WriteString(k)
	if n := 34 - len(k); n > 0 {
		b.WriteString(strings.Repeat(" ", n))
	} else {
		b.WriteByte(' ')
	}
	b.WriteString(v)
	b.WriteByte('\n')
}

func formatUint(v uint64) string {
	return strings.TrimSpace(strings.ReplaceAll(string(appendUint(nil, v)), " ", ""))
}

func formatInt(v int64) string {
	if v < 0 {
		return "-" + formatUint(uint64(-v))
	}
	return formatUint(uint64(v))
}

func appendUint(dst []byte, v uint64) []byte {
	if v == 0 {
		return append(dst, '0')
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, buf[i:]...)
}
