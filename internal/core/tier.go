package core

import (
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/vmsim"
)

// This file wires the vmsim second frame tier into the engine's scan
// kernels. Page access becomes versioned/optimistic in the vmcache
// style: the scan touch is bracketed by the page's tier+version word
// (Touch hands out the token, Stable validates it), and a concurrent
// demotion or promotion mid-filter retries the page. Correctness never
// depends on the retry — captured page bytes are frozen for the pinned
// state's lifetime — but the bracket keeps the *accounting* honest: a
// page demoted between touch and filter is re-charged at its new tier,
// which is exactly the protocol a real tiered buffer manager runs.

// tierScanRetries bounds the optimistic re-reads per page. Migrations of
// one page are rare (one autopilot slice or one write), so a page that
// keeps failing validation is under a migration storm; after the bound
// the scan keeps the latest charge and moves on — progress over
// precision, the answer is unaffected either way.
const tierScanRetries = 3

// tierScanFilter filters one page through the versioned/optimistic tier
// bracket: touch (charging cold latency and possibly promoting), scan,
// validate, retry on a concurrent migration.
func tierScanFilter(t *vmsim.FileTier, pg []byte, scan func(pg []byte) storage.PageScan) storage.PageScan {
	pid := int(storage.PageID(pg))
	for r := 0; ; r++ {
		tok := t.Touch(pid)
		s := scan(pg)
		if t.Stable(pid, tok) || r >= tierScanRetries {
			return s
		}
	}
}

// pageFilter chooses the page kernel of one query over [lo, hi] — the
// only place that does — and returns it as the filter every read (live,
// snapshot and baseline) applies to each page. A query pays for the
// cheapest kernel that answers it: count and sum; the qualifying minimum
// and maximum as well when an Aggregate was asked for. A query that builds a candidate first needs
// the boundary observations of the pages where nothing qualified, which
// extend the candidate's range (§2.2), so it runs ScanBounds on every
// page and the kernel above only on a page where ScanBounds met a match.
// Row IDs are not the filter's business: a Rows query collects them from
// the qualifying pages it is handed (buildCollect).
//
// On a tiered engine the chosen kernel runs inside the tier bracket
// above, so tier accounting covers eager and lazy captures uniformly —
// both hand back pages whose embedded PageID keys the tier. Single-tier
// (nil e.tier) is the zero-overhead default.
func (e *Engine) pageFilter(lo, hi uint64, building, aggregate bool) func(pg []byte) storage.PageScan {
	scan := storage.ScanCountSum
	if aggregate {
		scan = storage.ScanAggregate
	}
	// One closure either way, not one wrapping another: the allocations
	// of a query are pinned by TestQueryOptTelemetryOffNoExtraAllocs.
	var filter func(pg []byte) storage.PageScan
	if building {
		filter = func(pg []byte) storage.PageScan {
			if s, miss := storage.ScanBounds(pg, lo, hi); miss {
				return s
			}
			return scan(pg, lo, hi)
		}
	} else {
		filter = func(pg []byte) storage.PageScan { return scan(pg, lo, hi) }
	}
	if t := e.tier; t != nil {
		return func(pg []byte) storage.PageScan { return tierScanFilter(t, pg, filter) }
	}
	return filter
}

// TierStats snapshots the column tier's occupancy and migration
// counters; ok is false when the engine runs single-tier.
func (e *Engine) TierStats() (vmsim.TierStats, bool) {
	if e.tier == nil {
		return vmsim.TierStats{}, false
	}
	return e.tier.Stats(), true
}

// Tier exposes the engine's tier map (nil when tiering is off) — the
// autopilot's demotion duty and the harness drive migrations through it.
func (e *Engine) Tier() *vmsim.FileTier { return e.tier }
