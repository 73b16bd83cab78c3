package autopilot

import (
	"sync"
	"time"
)

// ewmaAlpha is the smoothing factor of the cost model's moving average:
// high enough to track phase changes (a view set growing from 0 to 100
// views changes per-page cost), low enough that one noisy scan does not
// swing the measured slowdown.
const ewmaAlpha = 0.2

// CostModel is the autopilot's EWMA scan-cost model. It learns the
// observed per-page cost of query scans and remembers the best cost the
// engine has shown; the ratio of the two is the scan slowdown the
// tier-pressure feedback moderates demotions on.
//
// A CostModel is safe for concurrent use; observations and reads are
// tiny critical sections under one mutex.
type CostModel struct {
	mu sync.Mutex
	// scanNsPerPage is the smoothed cost of filtering one page (ns).
	scanNsPerPage float64
	// scanNsFloor is the lowest smoothed scan cost seen so far — the
	// engine's demonstrated best. scanNsPerPage/scanNsFloor is the
	// measured scan slowdown the tier-pressure feedback moderates on.
	scanNsFloor float64
}

// ewma folds a sample into a moving average (seeding on first use).
func ewma(avg, sample float64) float64 {
	if avg == 0 {
		return sample
	}
	return avg + ewmaAlpha*(sample-avg)
}

// ObserveScan records a finished page scan: pages filtered and wall time
// elapsed.
func (m *CostModel) ObserveScan(pages int, elapsed time.Duration) {
	if pages <= 0 || elapsed <= 0 {
		return
	}
	sample := float64(elapsed.Nanoseconds()) / float64(pages)
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

// ScanNsPerPage returns the current smoothed scan cost (0 = no
// observations yet); intended for inspection tools.
func (m *CostModel) ScanNsPerPage() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.scanNsPerPage
}
