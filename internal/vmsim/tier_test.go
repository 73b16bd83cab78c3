package vmsim

import (
	"sync"
	"testing"
)

func newTestTier(t *testing.T, pages int, cfg TierConfig) *FileTier {
	t.Helper()
	ft, err := NewFileTier(pages, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// TestTierConfigValidation: disabled configs and nonsense page counts are
// rejected; the multiplier default resolves.
func TestTierConfigValidation(t *testing.T) {
	if _, err := NewFileTier(8, TierConfig{}); err == nil {
		t.Fatal("disabled config accepted")
	}
	if _, err := NewFileTier(0, TierConfig{HotFrames: 4}); err == nil {
		t.Fatal("zero pages accepted")
	}
	ft, err := NewFileTier(8, TierConfig{HotFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := ft.cfg.ColdMultiplier; got != defaultColdMultiplier {
		t.Fatalf("ColdMultiplier default = %g, want %d", got, defaultColdMultiplier)
	}
}

// TestTierWordTransitions walks one page through demote/promote and
// checks the packed tier+version word at every step: the cold bit flips,
// the version strictly advances, and redundant transitions are rejected.
func TestTierWordTransitions(t *testing.T) {
	ft := newTestTier(t, 4, TierConfig{HotFrames: 4, NoStall: true})
	if ft.IsCold(1) {
		t.Fatal("pages must start hot")
	}
	w0 := ft.Word(1)
	if !ft.Demote(1) {
		t.Fatal("demote of a hot page failed")
	}
	if ft.Demote(1) {
		t.Fatal("double demote succeeded")
	}
	w1 := ft.Word(1)
	if !ft.IsCold(1) || w1 == w0 {
		t.Fatalf("demote left word %#x (was %#x), cold=%v", w1, w0, ft.IsCold(1))
	}
	if ft.Stable(1, w0) {
		t.Fatal("stale token validated after demote")
	}
	if got := ft.Stats().HotFraction(); got != 0.75 {
		t.Fatalf("HotFraction with one of four pages cold = %g", got)
	}
	if !ft.Promote(1) {
		t.Fatal("promote of a cold page failed")
	}
	if ft.Promote(1) {
		t.Fatal("double promote succeeded")
	}
	w2 := ft.Word(1)
	if ft.IsCold(1) || w2 == w1 || w2 == w0 {
		t.Fatalf("promote left word %#x (was %#x, %#x)", w2, w1, w0)
	}
	s := ft.Stats()
	if s.Demotions != 1 || s.Promotions != 1 || s.HotFrames != 4 || s.ColdFrames != 0 {
		t.Fatalf("stats after one round trip: %+v", s)
	}
}

// TestTierTouch: hot touches are free, cold touches charge the stall and
// promote under budget, and the returned word is the post-promote one so
// the toucher's own migration never invalidates its read.
func TestTierTouch(t *testing.T) {
	ft := newTestTier(t, 4, TierConfig{HotFrames: 4, ColdMultiplier: 2, NoStall: true})
	if w := ft.Touch(0); !ft.Stable(0, w) {
		t.Fatal("hot touch returned an unstable word")
	}
	ft.Demote(0)
	w := ft.Touch(0)
	if !ft.Stable(0, w) {
		t.Fatal("cold touch returned a pre-promote word")
	}
	if ft.IsCold(0) {
		t.Fatal("touch under budget did not promote")
	}
	s := ft.Stats()
	if s.ColdTouches != 1 || s.Promotions != 1 {
		t.Fatalf("cold-touch counters: %+v", s)
	}
	wantStall := uint64(2 * tierBaseNanos)
	if s.StallNanos != wantStall {
		t.Fatalf("StallNanos = %d, want %d", s.StallNanos, wantStall)
	}
}

// TestTierTouchOverBudget: with the hot tier at budget, a cold touch
// charges the stall but leaves the page cold.
func TestTierTouchOverBudget(t *testing.T) {
	// Budget 2 of 4 pages: demote two, hot tier is exactly at budget.
	ft := newTestTier(t, 4, TierConfig{HotFrames: 2, NoStall: true})
	ft.Demote(0)
	ft.Demote(1)
	ft.Touch(0)
	if !ft.IsCold(0) {
		t.Fatal("touch promoted past the hot budget")
	}
	// Freeing budget (demote another) lets the next touch promote.
	ft.Demote(2)
	ft.Touch(0)
	if ft.IsCold(0) {
		t.Fatal("touch under freed budget did not promote")
	}
	if s := ft.Stats(); s.ColdTouches != 2 {
		t.Fatalf("cold touches not counted: %+v", s)
	}
}

// TestTierOutOfRange: accesses beyond the tracked pages are benign
// no-ops (Word 0, Stable true, no migrations).
func TestTierOutOfRange(t *testing.T) {
	ft := newTestTier(t, 2, TierConfig{HotFrames: 2, NoStall: true})
	if ft.Demote(-1) || ft.Demote(2) || ft.Promote(5) {
		t.Fatal("out-of-range migration succeeded")
	}
	if w := ft.Touch(7); w != 0 || !ft.Stable(7, w) {
		t.Fatal("out-of-range touch not benign")
	}
	if s := ft.Stats(); s.Demotions != 0 || s.ColdTouches != 0 {
		t.Fatalf("out-of-range access counted: %+v", s)
	}
}

// TestTierConcurrentMigration races demoters, promoters and touchers on
// a small page set: counters must balance (cold occupancy equals
// demotions minus promotions) and every word must end with a consistent
// cold bit. Run under -race in CI's stress step.
func TestTierConcurrentMigration(t *testing.T) {
	const pages = 64
	ft := newTestTier(t, pages, TierConfig{HotFrames: pages / 2, NoStall: true})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				ft.Demote((seed + i) % pages)
			}
		}(g)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				ft.Promote((seed*7 + i) % pages)
			}
		}(g)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				p := (seed*13 + i) % pages
				tok := ft.Touch(p)
				_ = ft.Stable(p, tok)
			}
		}(g)
	}
	wg.Wait()
	s := ft.Stats()
	if s.HotFrames+s.ColdFrames != pages {
		t.Fatalf("occupancy does not cover pages: %+v", s)
	}
	if int(s.Demotions)-int(s.Promotions) != s.ColdFrames {
		t.Fatalf("migration counters unbalanced: %+v", s)
	}
	coldWords := 0
	for i := 0; i < pages; i++ {
		if ft.IsCold(i) {
			coldWords++
		}
	}
	if coldWords != s.ColdFrames {
		t.Fatalf("cold words %d != ColdFrames %d", coldWords, s.ColdFrames)
	}
}
