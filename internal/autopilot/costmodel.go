package autopilot

import (
	"math"
	"sync"
	"time"
)

// ewmaAlpha is the smoothing factor of the cost model's moving averages:
// high enough to track phase changes (a view set growing from 0 to 100
// views changes per-page cost), low enough that one noisy scan does not
// swing the worker choice.
const ewmaAlpha = 0.2

// CostModel is the autopilot's EWMA throughput model. It learns the
// observed per-page cost of scans and the per-(view × dirty-page) cost of
// update alignment, and converts them into a per-operation worker count:
// fan out only when the work amortizes the worker startup overhead.
//
// The choice minimizes the classic span-plus-overhead estimate
//
//	T(w) ≈ units/w · unitCost + w · overhead
//
// whose optimum is w* = sqrt(units · unitCost / overhead), clamped to
// [1, max]. Until the first observation the model defers to the caller's
// static knob (returns max), so a cold engine behaves exactly like the
// pre-autopilot code.
//
// A CostModel is safe for concurrent use; observations and choices are
// tiny critical sections under one mutex.
type CostModel struct {
	mu sync.Mutex
	// scanNsPerPage is the smoothed single-worker cost of filtering one
	// page (ns), inferred from parallel runs as elapsed·workers/pages.
	scanNsPerPage float64
	// scanNsFloor is the lowest smoothed scan cost seen so far — the
	// engine's demonstrated best. scanNsPerPage/scanNsFloor is the
	// measured scan slowdown the tier-pressure feedback moderates on.
	scanNsFloor float64
	// alignNsPerUnit is the smoothed single-worker cost of aligning one
	// view against one dirty page (ns).
	alignNsPerUnit float64
	// overheadNs is the assumed per-worker startup cost (goroutine spawn
	// plus join barrier).
	overheadNs float64
}

// NewCostModel returns a model assuming the given per-worker overhead.
func NewCostModel(workerOverhead time.Duration) *CostModel {
	if workerOverhead <= 0 {
		workerOverhead = defaultWorkerOverhead
	}
	return &CostModel{overheadNs: float64(workerOverhead.Nanoseconds())}
}

// ewma folds a sample into a moving average (seeding on first use).
func ewma(avg, sample float64) float64 {
	if avg == 0 {
		return sample
	}
	return avg + ewmaAlpha*(sample-avg)
}

// ObserveScan records a finished page scan: pages filtered, workers used,
// wall time elapsed.
func (m *CostModel) ObserveScan(pages, workers int, elapsed time.Duration) {
	if pages <= 0 || workers <= 0 || elapsed <= 0 {
		return
	}
	sample := float64(elapsed.Nanoseconds()) * float64(workers) / float64(pages)
	m.mu.Lock()
	m.scanNsPerPage = ewma(m.scanNsPerPage, sample)
	if m.scanNsFloor == 0 || m.scanNsPerPage < m.scanNsFloor {
		m.scanNsFloor = m.scanNsPerPage
	}
	m.mu.Unlock()
}

// ScanSlowdown returns the current smoothed scan cost relative to the
// best this engine has demonstrated (1 = at the floor, 2 = scans take
// twice as long as they used to; 1 before any observation). Cold-tier
// stalls show up here, which is how the autopilot measures that its
// demotions started hurting the read path.
func (m *CostModel) ScanSlowdown() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.scanNsFloor == 0 {
		return 1
	}
	return m.scanNsPerPage / m.scanNsFloor
}

// ObserveAlign records a finished alignment fan-out: views walked, dirty
// pages in the batch, workers used, wall time elapsed.
func (m *CostModel) ObserveAlign(views, dirtyPages, workers int, elapsed time.Duration) {
	units := views * dirtyPages
	if units <= 0 || workers <= 0 || elapsed <= 0 {
		return
	}
	sample := float64(elapsed.Nanoseconds()) * float64(workers) / float64(units)
	m.mu.Lock()
	m.alignNsPerUnit = ewma(m.alignNsPerUnit, sample)
	m.mu.Unlock()
}

// workersFor evaluates the w* formula for a total predicted cost.
func (m *CostModel) workersFor(units int, unitCostNs float64, max int) int {
	if max <= 1 || units <= 1 {
		return 1
	}
	if unitCostNs == 0 {
		// Cold model: defer to the static knob.
		return max
	}
	w := int(math.Round(math.Sqrt(float64(units) * unitCostNs / m.overheadNs)))
	if w < 1 {
		w = 1
	}
	if w > max {
		w = max
	}
	return w
}

// ScanWorkers picks the worker count for a scan of the given page count,
// capped at max (the resolved static knob). Scans under minPages stay
// serial — the same threshold the sharded kernels already respect.
func (m *CostModel) ScanWorkers(pages, max, minPages int) int {
	if max <= 1 || pages < minPages {
		return 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.workersFor(pages, m.scanNsPerPage, max)
}

// AlignWorkers picks the fan-out for an alignment run over the given view
// and dirty-page counts, capped at max. Alignment shards per view, so the
// result never exceeds views.
func (m *CostModel) AlignWorkers(views, dirtyPages, max int) int {
	if max > views {
		max = views
	}
	if max <= 1 {
		return 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	unitCost := m.alignNsPerUnit * float64(dirtyPages)
	return m.workersFor(views, unitCost, max)
}

// ScanNsPerPage returns the current smoothed scan cost (0 = no
// observations yet); intended for inspection tools.
func (m *CostModel) ScanNsPerPage() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.scanNsPerPage
}

// AlignNsPerUnit returns the current smoothed per-(view × dirty page)
// alignment cost (0 = no observations yet).
func (m *CostModel) AlignNsPerUnit() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alignNsPerUnit
}
