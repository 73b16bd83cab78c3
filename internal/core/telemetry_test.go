package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/vmsim"
	"github.com/asv-db/asv/internal/workload"
)

// TestPublishNanosCountsOnlySuccesses is the satellite regression test
// for the Stats split: PublishNanos is successful-publication wall time
// only, while PublishAttemptNanos accumulates on the error path too. A
// capture failure therefore grows attempts and errors but leaves the
// success clock untouched.
func TestPublishNanosCountsOnlySuccesses(t *testing.T) {
	const pages = 64
	col := testColumn(t, pages, dist.NewLinear(5, 0, ccDomain, pages))
	e := newEngine(t, col, syncConfig())
	if _, err := e.CreateViewsOpt([]ViewSpec{{Lo: 0, Hi: ccDomain, Pinned: true}}); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()

	boom := errors.New("injected capture failure")
	e.set.SetCaptureHook(func(*view.View) ([][]byte, error) { return nil, boom })
	for _, u := range workload.UniformUpdates(9, 40, col.Rows(), 0, ccDomain) {
		if err := e.Update(u.Row, u.Value); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.FlushUpdates(); !errors.Is(err, boom) {
		t.Fatalf("flush error = %v, want injected capture failure", err)
	}

	mid := e.Stats()
	if mid.PublishErrors == before.PublishErrors {
		t.Fatal("capture hook failure produced no publish error")
	}
	if mid.PublishNanos != before.PublishNanos {
		t.Fatalf("PublishNanos grew by %d on a failed publication",
			mid.PublishNanos-before.PublishNanos)
	}
	if mid.PublishAttemptNanos <= before.PublishAttemptNanos {
		t.Fatal("PublishAttemptNanos did not grow on a failed publication")
	}

	// Clearing the hook lets a fresh batch publish: now both clocks
	// advance, and attempts stay >= successes.
	e.set.SetCaptureHook(nil)
	for _, u := range workload.UniformUpdates(10, 40, col.Rows(), 0, ccDomain) {
		if err := e.Update(u.Row, u.Value); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.FlushUpdates(); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.PublishNanos <= mid.PublishNanos {
		t.Fatal("PublishNanos did not grow on a successful publication")
	}
	if after.PublishAttemptNanos < after.PublishNanos {
		t.Fatalf("PublishAttemptNanos %d < PublishNanos %d",
			after.PublishAttemptNanos, after.PublishNanos)
	}
}

// sumChildren returns the summed durations of a span's direct children.
func sumChildren(sp *obs.Span) time.Duration {
	var sum time.Duration
	for _, c := range sp.Children {
		sum += time.Duration(c.End - c.Start)
	}
	return sum
}

// findSpan returns the first span named name in the tree rooted at sp.
func findSpan(sp *obs.Span, name string) *obs.Span {
	if sp == nil {
		return nil
	}
	if sp.Name == name {
		return sp
	}
	for _, c := range sp.Children {
		if found := findSpan(c, name); found != nil {
			return found
		}
	}
	return nil
}

// attrVal returns the named attribute's value (ok false when absent).
func attrVal(sp *obs.Span, key string) (int64, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// TestTraceSpanAttributionTieredLazy is the acceptance-criteria trace
// test: on a tiered column with lazy view materialization, a traced
// query's root span must attribute its wall time — the summed direct
// children (pin, route, scan, materialize, merge) cover at least 95% of
// the root's duration, and the scan span carries the tier attribution.
// The demoted column makes the scan dominate (every cold touch pays the
// simulated stall), so the ratio is robust; scheduling noise still gets
// a few attempts before the test judges the best one.
func TestTraceSpanAttributionTieredLazy(t *testing.T) {
	const pages = 256
	col := testColumn(t, pages, dist.NewSine(3, 0, ccDomain, 16))
	cfg := DefaultConfig()
	cfg.Create = view.CreateOptions{Lazy: true}
	cfg.Tiering = &vmsim.TierConfig{HotFrames: pages / 4}
	e := newEngine(t, col, cfg)

	var bestRatio float64
	var bestTrace *obs.Trace
	for attempt := 0; attempt < 5; attempt++ {
		// Fully re-demote so every attempt's scan pays cold stalls.
		tier := e.Tier()
		for p := 0; p < pages; p++ {
			tier.Demote(p)
		}
		tr := obs.NewTrace("query")
		ans, err := e.QueryOpt(ccDomain/8, ccDomain/2, QueryOptions{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if ans.Trace != tr {
			t.Fatal("answer does not echo the trace")
		}
		root := tr.Root
		if root.End == 0 {
			t.Fatal("root span unfinished")
		}
		scan := findSpan(root, "scan")
		if scan == nil {
			t.Fatalf("no scan span in trace:\n%s", tr)
		}
		if v, ok := attrVal(scan, "pages_scanned"); !ok || v <= 0 {
			t.Fatalf("scan span pages_scanned = %d (ok=%v)", v, ok)
		}
		if v, ok := attrVal(scan, "cold_touches"); !ok || v <= 0 {
			t.Fatalf("scan span cold_touches = %d (ok=%v) on a fully demoted column", v, ok)
		}
		ratio := float64(sumChildren(root)) / float64(root.End-root.Start)
		if ratio > bestRatio {
			bestRatio, bestTrace = ratio, tr
		}
		if bestRatio >= 0.95 {
			break
		}
	}
	if bestRatio < 0.95 {
		t.Fatalf("children cover %.1f%% of the root span, want >= 95%%:\n%s",
			bestRatio*100, bestTrace)
	}
}

// TestTracedReadShape: live, snapshot and adaptive-snapshot reads run one
// body, so a traced read of each kind returns a finished root carrying
// the normalized range and a pin child naming the epoch it read.
func TestTracedReadShape(t *testing.T) {
	const lo, hi = ccDomain / 8, ccDomain / 2
	e := newEngine(t, testColumn(t, 64, dist.NewSine(3, 0, ccDomain, 8)), syncConfig())
	if _, err := e.QueryOpt(0, ccDomain/4, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for _, r := range []struct {
		name string
		read func(lo, hi uint64, opt QueryOptions) (Answer, error)
	}{
		{"snapshot", snap.QueryOpt},
		{"snapshot-adapt", snap.QueryOptAdapt},
		{"live", e.QueryOpt},
	} {
		tr := obs.NewTrace("query")
		ans, err := r.read(hi, lo, QueryOptions{Trace: tr}) // swapped bounds: attrs carry the normalized range
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if ans.Trace != tr {
			t.Fatalf("%s: answer does not echo the trace", r.name)
		}
		root := tr.Root
		if root.End == 0 {
			t.Fatalf("%s: root span unfinished", r.name)
		}
		checkSpanTree(t, root)
		if v, ok := attrVal(root, "lo"); !ok || v != lo {
			t.Fatalf("%s: root lo = %d (ok=%v), want %d", r.name, v, ok, lo)
		}
		if v, ok := attrVal(root, "hi"); !ok || v != hi {
			t.Fatalf("%s: root hi = %d (ok=%v), want %d", r.name, v, ok, hi)
		}
		if len(root.Children) == 0 || root.Children[0].Name != "pin" {
			t.Fatalf("%s: first child is not the pin span:\n%s", r.name, tr)
		}
		pin := root.Children[0]
		if v, ok := attrVal(pin, "epoch_gen"); !ok || v != int64(snap.pinned().gen) {
			t.Fatalf("%s: pin epoch_gen = %d (ok=%v), want %d", r.name, v, ok, snap.pinned().gen)
		}
		// The adaptive snapshot read may have grown the live set by then.
		if v, ok := attrVal(pin, "views"); !ok || v < int64(snap.Views()) {
			t.Fatalf("%s: pin views = %d (ok=%v), want >= %d", r.name, v, ok, snap.Views())
		}
		for _, name := range []string{"route", "scan", "view"} {
			if findSpan(root, name) == nil {
				t.Fatalf("%s: no %s span:\n%s", r.name, name, tr)
			}
		}
	}
}

// TestSerialMultiViewScansFeedScanHistogram: every non-empty source scan —
// serial ones included, which is what a MultiView cover runs by default —
// adds one scan_ns_per_page sample.
func TestSerialMultiViewScansFeedScanHistogram(t *testing.T) {
	const pages = 64
	cfg := syncConfig()
	cfg.Mode = MultiView
	e := newEngine(t, testColumn(t, pages, dist.NewLinear(5, 0, ccDomain, pages)), cfg)
	specs := make([]ViewSpec, 8)
	for i := range specs {
		lo := uint64(i) * ccDomain / 10
		specs[i] = ViewSpec{Lo: lo, Hi: lo + ccDomain/10 + ccDomain/100}
	}
	if _, err := e.CreateViewsOpt(specs); err != nil {
		t.Fatal(err)
	}
	samples := func() uint64 { return e.Telemetry().Histograms["scan_ns_per_page"].Count }
	before := samples()
	res, err := e.QueryOpt(ccDomain/100, 8*ccDomain/10, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ViewsUsed != len(specs) || res.UsedFullView {
		t.Fatalf("setup: routed %d views (full=%v), want the %d-view cover", res.ViewsUsed, res.UsedFullView, len(specs))
	}
	if got := samples() - before; got != uint64(res.ViewsUsed) {
		t.Fatalf("scan_ns_per_page gained %d samples over %d non-empty source scans", got, res.ViewsUsed)
	}
}

// checkSpanTree verifies a finished trace is well-formed: every span
// ended at or after it started, and every child lies inside its parent —
// except synthetic counter-derived spans ("stall"), whose end can exceed
// the parent's under concurrency (counter deltas bleed across queries;
// finishScanSpan documents this).
func checkSpanTree(t *testing.T, sp *obs.Span) {
	t.Helper()
	if sp.End < sp.Start {
		t.Fatalf("span %q ends %d before it starts %d", sp.Name, sp.End, sp.Start)
	}
	for _, c := range sp.Children {
		if c.Start < sp.Start {
			t.Fatalf("child %q starts %d before parent %q at %d", c.Name, c.Start, sp.Name, sp.Start)
		}
		if c.Name != "stall" {
			if c.End == 0 {
				t.Fatalf("child %q of %q unfinished", c.Name, sp.Name)
			}
			if c.End > sp.End {
				t.Fatalf("child %q ends %d after parent %q at %d", c.Name, c.End, sp.Name, sp.End)
			}
		}
		checkSpanTree(t, c)
	}
}

// TestTracedQueryJournalStress races traced queries against autopilot
// writes and tier demotion churn and then audits the telemetry: no
// torn span trees (tracing is per-query, owned by the coordinating
// goroutine) and strictly monotone journal sequence numbers (the
// seqlock ring never yields torn or reordered events). Run under -race
// this doubles as the data-race gate for the whole obs seam.
func TestTracedQueryJournalStress(t *testing.T) {
	const (
		pages   = 128
		readers = 4
		queries = 40
	)
	col := testColumn(t, pages, dist.NewSine(7, 0, ccDomain, 16))
	cfg := DefaultConfig()
	cfg.JournalEvents = 1024
	cfg.Tiering = &vmsim.TierConfig{HotFrames: pages / 2, NoStall: true}
	ap := quietAutopilot()
	ap.CoalesceCount = 64
	ap.MaxFlushLatency = time.Millisecond
	cfg.Autopilot = ap
	e := newEngine(t, col, cfg)

	var (
		wg, churnWg sync.WaitGroup
		mu          sync.Mutex
		traces      []*obs.Trace
		errs        []error
		fail        = func(err error) {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
		stop = make(chan struct{})
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			qs := workload.SelectivitySweep(seed, queries, ccDomain, ccDomain/2, 500)
			local := make([]*obs.Trace, 0, len(qs))
			for _, q := range qs {
				tr := obs.NewTrace("query")
				if _, err := e.QueryOpt(q.Lo, q.Hi, QueryOptions{Trace: tr}); err != nil {
					fail(err)
					return
				}
				local = append(local, tr)
			}
			mu.Lock()
			traces = append(traces, local...)
			mu.Unlock()
		}(uint64(100 + r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, u := range workload.UniformUpdates(11, 2000, col.Rows(), 0, ccDomain) {
			if err := e.Update(u.Row, u.Value); err != nil {
				fail(err)
				return
			}
		}
	}()
	churnWg.Add(1)
	go func() {
		defer churnWg.Done()
		tier := e.Tier()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for p := 0; p < pages; p += 3 {
				tier.Demote(p)
			}
		}
	}()
	// Readers and the writer drain their deterministic streams; the
	// churn goroutine demotes until they are done.
	wg.Wait()
	close(stop)
	churnWg.Wait()

	if _, err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if len(traces) != readers*queries {
		t.Fatalf("collected %d traces, want %d", len(traces), readers*queries)
	}
	for _, tr := range traces {
		if tr.Root.End == 0 {
			t.Fatal("unfinished trace escaped the query")
		}
		checkSpanTree(t, tr.Root)
	}

	evs := e.Journal().Events()
	if len(evs) == 0 {
		t.Fatal("journal recorded no events under autopilot + tier churn")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("journal seq not strictly monotone: #%d after #%d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// TestQueryOptTelemetryOffNoExtraAllocs pins the zero-cost contract: an
// untraced query allocates exactly the same with the journal enabled as
// with all telemetry options off — every obs site on the off-path is a
// nil test or an always-on atomic, never an allocation — and the absolute
// counts are pinned too, so folding the traced, snapshot and baseline
// paths into one body cannot quietly tax the untraced one. A baseline
// query allocates 2/run (the one-source route and the page filter), as it
// did with a path of its own. An adaptive exact-fit hit — routed to the
// view an identical earlier query created, candidate built and discarded
// as a subset — allocates 15/run. It was 17 while a lazy candidate
// allocated a slot-state directory and its per-slot state array, 18 while
// the candidate's emit closure escaped into the sharded scan kernel, and
// 19 while a single-source scan reached its pages through that kernel's
// fetch closure. An Aggregate query is answered from the filter pass,
// with no collect closure: it allocates what the plain query does and the
// Aggregate value it returns.
func TestQueryOptTelemetryOffNoExtraAllocs(t *testing.T) {
	measure := func(cfg Config, opt QueryOptions) float64 {
		col := testColumn(t, 64, dist.NewSine(3, 0, ccDomain, 8))
		e := newEngine(t, col, cfg)
		// Warm twice so lazy one-time setup and the adaptive engine's
		// view creation are outside the measurement.
		for i := 0; i < 2; i++ {
			if _, err := e.QueryOpt(100, ccDomain/2, opt); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := e.QueryOpt(100, ccDomain/2, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	journalled := func(cfg Config) Config {
		cfg.JournalEvents = 256
		return cfg
	}
	for _, c := range []struct {
		name string
		cfg  Config
		want float64
	}{
		{"baseline", BaselineConfig(), 2},
		{"exact-fit hit", syncConfig(), 15},
	} {
		off := measure(c.cfg, QueryOptions{})
		if off != c.want {
			t.Errorf("%s: untraced query allocates %.1f/run, want %.1f", c.name, off, c.want)
		}
		if got := measure(journalled(c.cfg), QueryOptions{}); got != off {
			t.Errorf("%s: journal-enabled untraced query allocates %.1f/run, telemetry-off %.1f/run", c.name, got, off)
		}
		if got := measure(c.cfg, QueryOptions{ComputeAggregate: true}); got > off+1 {
			t.Errorf("%s: aggregate-only query allocates %.1f/run, a plain one %.1f/run: more than the Aggregate value on top", c.name, got, off)
		}
	}
}
