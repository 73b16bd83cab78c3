package viewset

import (
	"testing"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/vmsim"
)

// fixture creates a column plus helper to make partial views with chosen
// ranges (built over linear data so page counts track range widths).
type fixture struct {
	t   testing.TB
	col *storage.Column
}

func newFixture(t testing.TB) *fixture {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	as.SetMaxMapCount(1 << 30)
	c, err := storage.NewColumn(k, as, "col", 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fill(dist.NewLinear(1, 0, 1_000_000, 128)); err != nil {
		t.Fatal(err)
	}
	return &fixture{t: t, col: c}
}

func (f *fixture) mkView(lo, hi uint64) *view.View {
	return f.build(view.Spec{Lo: lo, Hi: hi, Opts: view.CreateOptions{Consecutive: true}})
}

// build creates the view of one spec; it keeps the spec's exact range.
func (f *fixture) build(sp view.Spec) *view.View {
	vs, err := view.Build(f.col, []view.Spec{sp}, nil)
	if err != nil {
		f.t.Fatal(err)
	}
	return vs[0]
}

func (f *fixture) newSet(maxViews, d, r int) *Set {
	full, err := view.NewFull(f.col)
	if err != nil {
		f.t.Fatal(err)
	}
	return New(full, maxViews, d, r)
}

// snap captures the set the way the engine publishes it — queries route
// over this immutable capture, never over the live set.
func (f *fixture) snap(s *Set) *Snapshot {
	f.t.Helper()
	sn := s.Snapshot(f.capFull(s))
	f.t.Cleanup(func() { _ = sn.ReleaseViews() })
	return sn
}

func TestRouteSinglePrefersSmallest(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(10, 0, 0)
	wide := f.mkView(0, 800_000)
	narrow := f.mkView(100_000, 300_000)
	if err := s.Insert(wide); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(narrow); err != nil {
		t.Fatal(err)
	}

	sn := f.snap(s)
	got := sn.RouteSingle(150_000, 250_000)
	if got.view != narrow {
		t.Fatalf("RouteSingle picked %v, want the narrow view", got.view)
	}
	// Query not covered by any partial -> full view.
	got = sn.RouteSingle(900_000, 950_000)
	if !got.Full() || got != sn.Full() {
		t.Fatalf("RouteSingle picked %v, want full view", got.view)
	}
	// Query covered only by the wide view.
	got = sn.RouteSingle(500_000, 700_000)
	if got.view != wide {
		t.Fatalf("RouteSingle picked %v, want wide view", got.view)
	}
}

func TestRouteSingleEmptySet(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(10, 0, 0)
	sn := f.snap(s)
	if got := sn.RouteSingle(0, 10); !got.Full() {
		t.Fatal("empty set must route to full view")
	}
	if got := sn.RouteMulti(0, 10); got != nil {
		t.Fatalf("empty set covered a range: %v", got)
	}
}

func TestRouteMultiGreedyCover(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(10, 0, 0)
	a := f.mkView(0, 300_000)
	b := f.mkView(250_000, 600_000)
	c := f.mkView(550_000, 900_000)
	for _, v := range []*view.View{a, b, c} {
		if err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	sn := f.snap(s)
	got := sn.RouteMulti(100_000, 800_000)
	if len(got) != 3 {
		t.Fatalf("RouteMulti used %d views, want 3", len(got))
	}
	if got[0].view != a || got[1].view != b || got[2].view != c {
		t.Fatalf("RouteMulti order wrong: %v", got)
	}
	// A query inside one view needs just that view.
	got = sn.RouteMulti(260_000, 290_000)
	if len(got) != 1 {
		t.Fatalf("RouteMulti used %d views, want 1", len(got))
	}
	// Gap in coverage -> nil.
	if got := sn.RouteMulti(100_000, 950_000); got != nil {
		t.Fatalf("RouteMulti covered a gap: %v", got)
	}
}

func TestRouteMultiPrefersCheapestViews(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(10, 0, 0)
	short := f.mkView(0, 200_000) // fewer pages on linear data
	long := f.mkView(0, 500_000)
	if err := s.Insert(short); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(long); err != nil {
		t.Fatal(err)
	}
	// The paper's multi-view mode prefers multiple (smaller) views over a
	// single larger one: expect the short view first, then the long one to
	// finish the cover.
	sn := f.snap(s)
	got := sn.RouteMulti(0, 400_000)
	if len(got) != 2 || got[0].view != short || got[1].view != long {
		t.Fatalf("RouteMulti = %v, want [short long]", got)
	}
	// With equal page counts, furthest reach wins the tie: a query fully
	// inside both still picks just one view.
	got = sn.RouteMulti(250_000, 400_000)
	if len(got) != 1 || got[0].view != long {
		t.Fatalf("RouteMulti tail = %v, want [long]", got)
	}
}

func TestConsiderNotSmallerThanFull(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(10, 0, 0)
	// A view over everything indexes as many pages as the full view.
	cand := f.mkView(0, 1_000_000)
	dec, old := s.Consider(cand)
	if dec != DiscardedNotSmaller || old != nil {
		t.Fatalf("Consider = %v,%v", dec, old)
	}
	if s.Len() != 0 {
		t.Fatal("discarded view was inserted")
	}
}

func TestConsiderSubsetDiscard(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(10, 0, 0)
	existing := f.mkView(100_000, 500_000)
	if err := s.Insert(existing); err != nil {
		t.Fatal(err)
	}
	// Candidate covers a sub-range and (linear data) indexes fewer pages,
	// but with d=0 "fewer" still discards only if >= existing - 0 ... a
	// strictly smaller page count passes. Build an equal-range candidate
	// to hit the discard.
	cand := f.mkView(100_000, 500_000)
	dec, _ := s.Consider(cand)
	if dec != DiscardedSubset {
		t.Fatalf("equal-range candidate: %v, want DiscardedSubset", dec)
	}
	_ = cand.Release()

	// A much narrower candidate (far fewer pages) is kept.
	cand2 := f.mkView(200_000, 250_000)
	dec, _ = s.Consider(cand2)
	if dec != Inserted {
		t.Fatalf("narrow candidate: %v, want Inserted", dec)
	}
}

func TestConsiderDiscardTolerance(t *testing.T) {
	f := newFixture(t)
	// Huge tolerance: every subset is discarded regardless of page count.
	s := f.newSet(10, 1<<30, 0)
	existing := f.mkView(100_000, 500_000)
	if err := s.Insert(existing); err != nil {
		t.Fatal(err)
	}
	cand := f.mkView(200_000, 250_000)
	dec, _ := s.Consider(cand)
	if dec != DiscardedSubset {
		t.Fatalf("with huge d: %v, want DiscardedSubset", dec)
	}
}

func TestConsiderSupersetReplace(t *testing.T) {
	f := newFixture(t)
	// r large enough that a wider view replaces despite more pages.
	s := f.newSet(10, 0, 1<<30)
	existing := f.mkView(200_000, 300_000)
	if err := s.Insert(existing); err != nil {
		t.Fatal(err)
	}
	cand := f.mkView(100_000, 400_000)
	dec, old := s.Consider(cand)
	if dec != Replaced {
		t.Fatalf("Consider = %v, want Replaced", dec)
	}
	if old != existing {
		t.Fatal("wrong view displaced")
	}
	if s.Len() != 1 || s.Partials()[0] != cand {
		t.Fatal("replacement not reflected in set")
	}
}

func TestConsiderSupersetNotReplacedWhenTooBig(t *testing.T) {
	f := newFixture(t)
	// r=0: a superset with more pages must NOT replace; with no other rule
	// firing it gets inserted alongside.
	s := f.newSet(10, 0, 0)
	existing := f.mkView(200_000, 300_000)
	if err := s.Insert(existing); err != nil {
		t.Fatal(err)
	}
	cand := f.mkView(100_000, 400_000) // more pages on linear data
	dec, _ := s.Consider(cand)
	if dec != Inserted {
		t.Fatalf("Consider = %v, want Inserted", dec)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestConsiderLimitFreezes(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(2, 0, 0)
	for i, rng := range [][2]uint64{{0, 100_000}, {200_000, 300_000}} {
		dec, _ := s.Consider(f.mkView(rng[0], rng[1]))
		if dec != Inserted {
			t.Fatalf("view %d: %v", i, dec)
		}
	}
	if s.Frozen() {
		t.Fatal("frozen before limit hit")
	}
	dec, _ := s.Consider(f.mkView(400_000, 500_000))
	if dec != DiscardedLimit {
		t.Fatalf("Consider = %v, want DiscardedLimit", dec)
	}
	if !s.Frozen() {
		t.Fatal("set not frozen after limit")
	}
}

func TestInsertLimit(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(1, 0, 0)
	if err := s.Insert(f.mkView(0, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(f.mkView(0, 2000)); err == nil {
		t.Fatal("Insert beyond limit succeeded")
	}
}

func TestClear(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(1, 0, 0)
	v := f.mkView(0, 100_000)
	if err := s.Insert(v); err != nil {
		t.Fatal(err)
	}
	_, _ = s.Consider(f.mkView(1, 2)) // freezes (limit 1)
	got := s.Clear()
	if len(got) != 1 || got[0] != v {
		t.Fatalf("Clear returned %v", got)
	}
	if s.Len() != 0 || s.Frozen() {
		t.Fatal("Clear did not reset state")
	}
}

func TestCoveredInterval(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(10, 0, 0)
	for _, r := range [][2]uint64{
		{100, 200},
		{150, 400},
		{401, 500}, // adjacent to the previous view
		{900, 999}, // disjoint
	} {
		if err := s.Insert(f.mkView(r[0], r[1])); err != nil {
			t.Fatal(err)
		}
	}
	sn := f.snap(s)
	parts := sn.partials

	lo, hi := sn.CoveredInterval(parts, 180, 450)
	if lo != 100 || hi != 500 {
		t.Fatalf("CoveredInterval = [%d,%d], want [100,500]", lo, hi)
	}
	// Full view source covers the whole domain.
	lo, hi = sn.CoveredInterval([]*SnapView{sn.Full()}, 5, 10)
	if lo != 0 || hi != ^uint64(0) {
		t.Fatalf("full-view interval = [%d,%d]", lo, hi)
	}
	// Sources not covering the query: falls back to the query itself.
	lo, hi = sn.CoveredInterval(parts[:1], 300, 350)
	if lo != 300 || hi != 350 {
		t.Fatalf("uncovered interval = [%d,%d], want [300,350]", lo, hi)
	}
}

func TestDecisionString(t *testing.T) {
	for _, d := range []Decision{DecisionNone, Inserted, Replaced, DiscardedNotSmaller,
		DiscardedSubset, DiscardedLimit, DiscardedStale} {
		if d.String() == "" {
			t.Fatalf("empty string for %d", int(d))
		}
	}
	if Decision(99).String() != "Decision(99)" {
		t.Fatal("unknown decision string")
	}
}

// TestDecisionZeroValue pins the DecisionNone sentinel: the zero value
// of Decision must read as "none", never as a retention outcome — a
// QueryResult whose query built no candidate would otherwise report
// "inserted" to any caller that forgets to check CandidateBuilt.
func TestDecisionZeroValue(t *testing.T) {
	var d Decision
	if d != DecisionNone {
		t.Fatalf("zero Decision = %v, want DecisionNone", d)
	}
	if d.String() != "none" {
		t.Fatalf("zero Decision string = %q, want %q", d.String(), "none")
	}
	if DecisionNone == Inserted {
		t.Fatal("DecisionNone aliases Inserted")
	}
}

func TestTemperatures(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(10, 0, 0)
	hot := f.mkView(0, 400_000)
	cold := f.mkView(600_000, 800_000)
	if err := s.Insert(hot); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(cold); err != nil {
		t.Fatal(err)
	}
	// Route inside hot's range repeatedly; cold is never hit. Routing a
	// capture touches the live set's LRU accounting.
	sn := f.snap(s)
	for i := 0; i < 5; i++ {
		if got := sn.RouteSingle(100_000, 200_000); got.view != hot {
			t.Fatalf("routed to %v", got.view)
		}
	}
	temps := s.Temperatures()
	if len(temps) != 2 {
		t.Fatalf("%d temperatures, want 2", len(temps))
	}
	byView := map[*view.View]Temperature{}
	for _, tp := range temps {
		byView[tp.View] = tp
	}
	h, c := byView[hot], byView[cold]
	if h.Uses != 5 {
		t.Fatalf("hot uses = %d, want 5", h.Uses)
	}
	if c.Uses != 0 {
		t.Fatalf("cold uses = %d, want 0", c.Uses)
	}
	if h.LastUsed != s.Clock() {
		t.Fatalf("hot last used %d, clock %d", h.LastUsed, s.Clock())
	}
	// Insertion stamps recency: a never-routed view is not "never used".
	if c.LastUsed != 0 {
		// cold was inserted at clock 0, before any routing.
		t.Fatalf("cold last used %d, want insertion tick 0", c.LastUsed)
	}
}

func TestRemoveUnfreezes(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(1, 0, 0)
	v := f.mkView(0, 100_000)
	if dec, _ := s.Consider(v); dec != Inserted {
		t.Fatalf("decision %v", dec)
	}
	big := f.mkView(200_000, 900_000)
	if dec, _ := s.Consider(big); dec != DiscardedLimit {
		t.Fatalf("decision %v", dec)
	}
	if !s.Frozen() {
		t.Fatal("set not frozen at limit")
	}
	if s.Remove(f.mkView(5, 6)) {
		t.Fatal("removed a non-member")
	}
	if !s.Remove(v) {
		t.Fatal("member not removed")
	}
	if s.Frozen() || s.Len() != 0 {
		t.Fatalf("after remove: frozen=%v len=%d", s.Frozen(), s.Len())
	}
	if s.Contains(v) {
		t.Fatal("removed view still contained")
	}
	// Capacity reopened: candidates are accepted again.
	if dec, _ := s.Consider(big); dec != Inserted {
		t.Fatalf("post-remove decision %v", dec)
	}
	_ = v.Release()
}

func TestReplaceExistingTransfersTemperature(t *testing.T) {
	f := newFixture(t)
	s := f.newSet(10, 0, 0)
	old := f.mkView(0, 400_000)
	if err := s.Insert(old); err != nil {
		t.Fatal(err)
	}
	sn := f.snap(s)
	for i := 0; i < 3; i++ {
		sn.RouteSingle(100_000, 200_000)
	}
	repl := f.mkView(0, 400_000)
	if s.ReplaceExisting(f.mkView(1, 2), repl) {
		t.Fatal("replaced a non-member")
	}
	if !s.ReplaceExisting(old, repl) {
		t.Fatal("member not replaced")
	}
	temps := s.Temperatures()
	if len(temps) != 1 || temps[0].View != repl {
		t.Fatalf("temperatures %+v", temps)
	}
	if temps[0].Uses != 3 {
		t.Fatalf("replacement uses = %d, want inherited 3", temps[0].Uses)
	}
	_ = old.Release()
}
