// Package obs is a look-alike of the real telemetry package: the lint
// suite matches the obs package by import-path suffix, so this fixture
// (fixture.example/obs) trips the same obs-aware rules the real module
// does — the atomicfield instrument-handle rule and the paired
// analyzer's Snapshot exemption — without the corpus importing engine
// internals.
package obs

import "sync/atomic"

// Counter mirrors the real monotone instrument.
type Counter struct{ v atomic.Uint64 }

func (c *Counter) Add(d uint64) { c.v.Add(d) }

func (c *Counter) Load() uint64 { return c.v.Load() }

// Histogram mirrors the real log₂ instrument closely enough to have
// atomic innards and a value-copy Snapshot.
type Histogram struct {
	count atomic.Uint64
	sum   atomic.Uint64
}

func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot returns a plain value copy. There is no handle to release:
// the paired analyzer must not mistake this for the viewset Snapshot
// acquire protocol.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
}

// HistogramSnapshot is the copied form — values by design, never
// flagged by the instrument-handle rule.
type HistogramSnapshot struct {
	Count uint64
	Sum   uint64
}
