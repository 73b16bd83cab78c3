package vmsim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// This file adds a second, slower frame tier to the simulated kernel —
// the NVMe/CXL capacity tier of tiered-memory buffer managers. Frames
// never move physically (epoch'd captures alias frame memory, so moving
// bytes under pinned readers would be a use-after-free); instead the
// tier of each *file page* is tracked in a packed tier+version word and
// cold accesses are charged a simulated latency, following Virtuoso's
// simulated-cost methodology (PAPERS.md). Demotion and promotion are
// single CAS transitions that bump the version, which gives readers the
// vmcache-style versioned/optimistic access protocol of "Virtual-Memory
// Assisted Buffer Management In Tiered Memory": bracket the page read
// with Word/Stable and retry on a concurrent migration — readers never
// block on tier migration.
//
// Tier-word layout (uint32): bit 0 is the tier (0 = hot/DRAM,
// 1 = cold/capacity tier); bits 1..31 are a version counter bumped by
// every demote and promote.

const (
	// tierColdBit marks a page as resident in the cold tier.
	tierColdBit = 1
	// tierBaseNanos approximates the hot-tier cost of filtering one 4 KiB
	// page — the unit TierConfig.ColdMultiplier scales.
	tierBaseNanos = 250
	// defaultColdMultiplier is the simulated cold-tier slowdown when the
	// config leaves it zero (NVMe-class: ~8× DRAM for a 4 KiB access).
	defaultColdMultiplier = 8
)

// TierConfig parameterizes a file's two-tier frame budget. The zero
// value disables tiering entirely: no words are tracked, no latency is
// charged, and behaviour is byte-for-byte the single-tier kernel.
type TierConfig struct {
	// HotFrames is the hot-tier (DRAM) frame budget in file pages; pages
	// beyond it are candidates for demotion to the capacity tier.
	// <= 0 disables tiering.
	HotFrames int
	// ColdMultiplier is the simulated slowdown of a cold-tier page access
	// relative to the hot tier's per-page scan cost (0 selects 8; the
	// charged stall is ColdMultiplier × 250ns per cold page touch).
	ColdMultiplier float64
	// NoStall charges cold touches to the stall counters without the
	// busy-wait — deterministic tests keep the accounting, not the time.
	NoStall bool
}

// Enabled reports whether the config describes an active second tier.
func (c TierConfig) Enabled() bool { return c.HotFrames > 0 }

// TierStats is a snapshot of one file tier's occupancy and migration
// counters.
type TierStats struct {
	Pages       int    // total tracked file pages
	HotFrames   int    // pages currently hot
	ColdFrames  int    // pages currently cold
	HotBudget   int    // configured hot-tier budget
	Demotions   uint64 // hot → cold transitions
	Promotions  uint64 // cold → hot transitions
	ColdTouches uint64 // page accesses that found the page cold
	StallNanos  uint64 // cumulative simulated cold-access latency, ns
}

// HotFraction returns the fraction of tracked pages currently hot.
func (s TierStats) HotFraction() float64 {
	if s.Pages == 0 {
		return 1
	}
	return float64(s.HotFrames) / float64(s.Pages)
}

// FileTier tracks the tier+version word of every page of one file. All
// methods are safe for concurrent use; migrations are lock-free CAS
// transitions and touches are wait-free reads (plus the simulated
// stall).
type FileTier struct {
	cfg     TierConfig
	stallNs int64
	words   []atomic.Uint32

	cold        atomic.Int64
	demotions   atomic.Uint64
	promotions  atomic.Uint64
	coldTouches atomic.Uint64
	stallTotal  atomic.Uint64
}

// NewFileTier creates the tier map for a file of the given page count.
// The caller owns the map; the kernel keeps no reference to it. Every
// page starts hot with version 0.
func NewFileTier(pages int, cfg TierConfig) (*FileTier, error) {
	if !cfg.Enabled() {
		return nil, fmt.Errorf("%w: tier config with HotFrames %d", ErrInvalid, cfg.HotFrames)
	}
	if pages <= 0 {
		return nil, fmt.Errorf("%w: tier map over %d pages", ErrInvalid, pages)
	}
	if cfg.ColdMultiplier <= 0 {
		cfg.ColdMultiplier = defaultColdMultiplier
	}
	return &FileTier{
		cfg:     cfg,
		stallNs: int64(cfg.ColdMultiplier * tierBaseNanos),
		words:   make([]atomic.Uint32, pages),
	}, nil
}

// Word returns page i's current tier+version word — the version token of
// the optimistic read protocol.
func (t *FileTier) Word(i int) uint32 {
	if i < 0 || i >= len(t.words) {
		return 0
	}
	return t.words[i].Load()
}

// Stable reports whether page i's word still matches the token, i.e. no
// demotion or promotion intervened since the token was read.
func (t *FileTier) Stable(i int, token uint32) bool {
	if i < 0 || i >= len(t.words) {
		return true
	}
	return t.words[i].Load() == token
}

// IsCold reports whether page i currently resides in the cold tier.
func (t *FileTier) IsCold(i int) bool { return t.Word(i)&tierColdBit != 0 }

// Touch records one read access to page i and returns the word the read
// should validate against. A hot page costs nothing. A cold page is
// charged the simulated capacity-tier latency and — unless the hot tier
// is at budget — promoted back to the hot tier (the promote bumps the
// version, and the returned word is the promoted one, so the toucher's
// own migration never forces a retry).
func (t *FileTier) Touch(i int) uint32 {
	if i < 0 || i >= len(t.words) {
		return 0
	}
	w := t.words[i].Load()
	if w&tierColdBit == 0 {
		return w
	}
	t.coldTouches.Add(1)
	t.stallTotal.Add(uint64(t.stallNs))
	if !t.cfg.NoStall {
		spinWait(time.Duration(t.stallNs))
	}
	if t.hotFrames() < t.cfg.HotFrames {
		if nw, ok := t.promote(i, w); ok {
			return nw
		}
	}
	return t.words[i].Load()
}

// Demote moves page i to the cold tier; false when it already was cold
// (or out of range). The version bump invalidates concurrent optimistic
// readers of the page, which retry through their pinned capture.
func (t *FileTier) Demote(i int) bool {
	if i < 0 || i >= len(t.words) {
		return false
	}
	for {
		w := t.words[i].Load()
		if w&tierColdBit != 0 {
			return false
		}
		if t.words[i].CompareAndSwap(w, (w|tierColdBit)+2) {
			t.cold.Add(1)
			t.demotions.Add(1)
			return true
		}
	}
}

// Promote moves page i back to the hot tier regardless of the budget —
// the write path lands written pages hot unconditionally (a COW shadow
// allocates a fresh DRAM frame). Budget-respecting promotion happens in
// Touch. Returns false when the page already was hot.
func (t *FileTier) Promote(i int) bool {
	if i < 0 || i >= len(t.words) {
		return false
	}
	for {
		w := t.words[i].Load()
		if w&tierColdBit == 0 {
			return false
		}
		if _, ok := t.promote(i, w); ok {
			return true
		}
	}
}

// promote attempts the cold → hot CAS from the observed word.
func (t *FileTier) promote(i int, w uint32) (uint32, bool) {
	if w&tierColdBit == 0 {
		return w, false
	}
	nw := (w &^ uint32(tierColdBit)) + 2
	if !t.words[i].CompareAndSwap(w, nw) {
		return w, false
	}
	t.cold.Add(-1)
	t.promotions.Add(1)
	return nw, true
}

// hotFrames returns the current hot-tier occupancy in pages.
func (t *FileTier) hotFrames() int { return len(t.words) - int(t.cold.Load()) }

// Stats snapshots occupancy and migration counters. Counters are read
// individually, so a snapshot taken under concurrent migration is
// advisory (each field is exact at its own read).
func (t *FileTier) Stats() TierStats {
	cold := int(t.cold.Load())
	return TierStats{
		Pages:       len(t.words),
		HotFrames:   len(t.words) - cold,
		ColdFrames:  cold,
		HotBudget:   t.cfg.HotFrames,
		Demotions:   t.demotions.Load(),
		Promotions:  t.promotions.Load(),
		ColdTouches: t.coldTouches.Load(),
		StallNanos:  t.stallTotal.Load(),
	}
}

// spinWait busy-waits for d — the charged latencies are microsecond
// scale, far below what a parked goroutine could model faithfully.
func spinWait(d time.Duration) {
	if d <= 0 {
		return
	}
	t0 := time.Now()
	for time.Since(t0) < d { //nolint:revive // intentional busy-wait
	}
}
