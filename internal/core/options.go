package core

import (
	"fmt"
	"time"

	"github.com/asv-db/asv/internal/bitvec"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/viewset"
)

// QueryOptions configures QueryOpt — the engine's one read entry point.
type QueryOptions struct {
	// CollectRows materializes the qualifying row IDs into Answer.Rows.
	CollectRows bool
	// ComputeAggregate computes count/sum/min/max into Answer.Agg.
	ComputeAggregate bool
	// Trace, when non-nil, records a span tree for this one query —
	// state pin, routing, per-view scanning with tier attribution,
	// candidate materialization and the publication tail — into the
	// trace's root span and returns it on Answer.Trace. Nil (the
	// default) keeps the query path allocation-free: every trace site is
	// a nil span test, like Engine.tier.
	Trace *obs.Trace
}

// Answer is the unified result of QueryOpt: the routing telemetry every
// query reports, plus the optional materializations the options asked
// for (nil when not requested).
type Answer struct {
	QueryResult
	Rows *RowSet
	Agg  *Aggregate
	// Trace echoes QueryOptions.Trace with the recorded span tree (nil
	// when tracing was off).
	Trace *obs.Trace
}

// QueryOpt answers the inclusive range query [lo, hi] according to the
// options, creating and maintaining partial views as a side product
// (Listing 1).
//
// Reads are epoch-routed and lock-free: the query pins the current
// immutable engine state (published via atomic pointer), routes and
// scans against its capture, and never takes the engine lock —
// alignment, rebuilds and autopilot lifecycle work holding it
// exclusively do not stall readers. Updates pending at entry are
// flushed first (§2.4: views must reflect every applied write before
// answering); a write that lands after the flush is serialized after
// this query and becomes visible with the next published state.
func (e *Engine) QueryOpt(lo, hi uint64, opt QueryOptions) (Answer, error) {
	if err := e.flushPendingForRead(); err != nil {
		opt.Trace.Finish()
		return Answer{Trace: opt.Trace}, err
	}
	st := e.acquireState()
	defer e.releaseState(st)
	return e.read(st, lo, hi, opt, true)
}

// read is the one body of every read — live, snapshot and baseline,
// traced or not: the public entries only obtain the pinned state, and
// everything after the pin happens here in Listing 1's order (route, scan
// the chosen views, build the candidate as a by-product, publish it).
// adapt permits the candidate; a baseline engine, a frozen capture or a
// closed state never builds one. Trace sites go through the nil-safe
// obs.Span, so an untraced read runs the same code minus the recording.
func (e *Engine) read(st *engineState, lo, hi uint64, opt QueryOptions, adapt bool) (Answer, error) {
	if lo > hi {
		lo, hi = hi, lo
	}
	e.stats.queries.Add(1)
	defer opt.Trace.Finish()
	var root *obs.Span // nil when tracing is off: every span site below is then a no-op
	if opt.Trace != nil {
		root = opt.Trace.Root
		root.SetAttr("lo", int64(lo))
		root.SetAttr("hi", int64(hi))
		// The pin span covers the trace's start up to here: for a live
		// read the pending-write flush and the acquire, for a snapshot
		// the handle lookup.
		pin := root.ChildAt("pin", root.Start, 0)
		pin.SetAttr("epoch_gen", int64(st.gen))
		pin.SetAttr("views", int64(st.snap.Len()))
		pin.Finish()
	}
	ans := Answer{Trace: opt.Trace}
	if opt.ComputeAggregate {
		ans.Agg = &Aggregate{}
	}
	collect, collected := e.buildCollect(lo, hi, opt, &ans)
	res, cand, err := e.scanState(st, lo, hi, ans.Agg, collect, adapt, root)
	ans.QueryResult = res
	if err == nil && collected != nil && *collected != ans.Count {
		// The filter pass and the mask pass must agree — captured pages
		// are frozen for the state's lifetime, so a drift can only mean
		// a kernel bug.
		err = fmt.Errorf("core: rows drift: collected %d rows, counted %d", *collected, ans.Count)
	}
	if err != nil {
		if cand != nil {
			_ = cand.Release() //asv:ignore-err discarding the candidate after a seal error; that error is returned
		}
		return ans, err
	}
	if cand != nil {
		// Publish the candidate the pinned scan built under the exclusive
		// engine lock and apply the retention decision's side effects.
		merge := root.Child("merge")
		dec, displaced := e.publishCandidate(cand, st.gen)
		ans.CandidateBuilt = true
		ans.Decision = dec
		err = e.applyDecision(dec, cand, displaced)
		merge.Finish()
	}
	e.journalTierPromotions()
	return ans, err
}

// flushPendingForRead flushes the buffered update batch, if any, so the
// next published state reflects every applied write. One pass suffices:
// whatever was buffered at entry is drained and published; a write
// racing in afterwards is serialized after this reader.
func (e *Engine) flushPendingForRead() error {
	if e.pendingCount.Load() == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pendingCount.Load() == 0 {
		return nil
	}
	_, err := e.flushLocked()
	return err
}

// buildCollect returns the page-collect callback of a Rows query, which
// sees every qualifying page in page order: it takes the page's match
// mask and ORs it into Answer.Rows at the page's row offset. collected
// counts the rows it set, for read to hold against the filter's count.
// Both are nil when no rows were asked for — an Aggregate is answered
// from the filter pass alone and needs no callback.
func (e *Engine) buildCollect(lo, hi uint64, opt QueryOptions, ans *Answer) (collect func(uint64, []byte), collected *int) {
	if !opt.CollectRows {
		return nil, nil
	}
	rs, n := NewRowSet(e.col.Rows()), new(int)
	ans.Rows = rs
	return func(pid uint64, pg []byte) {
		var mask storage.PageMask
		*n += storage.MatchMask(pg, lo, hi, &mask)
		rs.bits.OrAt(int(pid)*storage.ValuesPerPage, mask[:])
	}, n
}

// routeState returns the capture-side source views for [lo, hi]
// according to the configured mode — the epoch counterpart of the
// live-set routing of §2.1. A baseline engine is the degenerate route:
// the captured full view is its only source.
func (e *Engine) routeState(snap *viewset.Snapshot, lo, hi uint64) []*viewset.SnapView {
	if !e.cfg.Adaptive {
		return []*viewset.SnapView{snap.Full()}
	}
	if e.cfg.Mode != MultiView {
		return []*viewset.SnapView{snap.RouteSingle(lo, hi)}
	}
	// The paper's policy: use multiple views whenever they cover the range,
	// "instead of directing the query to a single (potentially larger)
	// view".
	if multi := snap.RouteMulti(lo, hi); multi != nil {
		return multi
	}
	return []*viewset.SnapView{snap.RouteSingle(lo, hi)}
}

// scanState is the pinned-state body of a routed query: route over the
// capture, scan every source, and — when adapt is set and the capture
// permits — build the candidate view from query-private state for the
// caller to publish. agg, when non-nil, receives count, sum, minimum and
// maximum from the one filter pass; collect, non-nil for a Rows query,
// is handed every qualifying page. Nothing here reads live view or set
// fields, which is what lets any number of scans overlap alignment,
// rebuilds and retirement.
func (e *Engine) scanState(st *engineState, lo, hi uint64, agg *Aggregate, collect func(uint64, []byte), adapt bool, tsp *obs.Span) (QueryResult, *view.View, error) {
	snap := st.snap
	route := tsp.Child("route")
	sources := e.routeState(snap, lo, hi)
	res := QueryResult{ViewsUsed: len(sources)}
	for _, sv := range sources {
		if sv.Full() {
			res.UsedFullView = true
			e.stats.fullViewQueries.Add(1)
		}
	}
	route.SetAttr("views", int64(len(sources)))
	if res.UsedFullView {
		route.SetAttr("full_view", 1)
	}
	route.Finish()
	scanSp := tsp.Child("scan")
	tierBase := e.traceBaselines(scanSp)
	var processed *bitvec.Vector
	if len(sources) > 1 {
		processed = e.getProcessed()
		defer e.putProcessed(processed)
	}
	var builder *view.Builder
	// Candidate construction keys off the capture: a frozen capture or a
	// state published by Close skips building rather than mmap-and-
	// release on every query (stale decisions are re-checked at
	// publication anyway).
	if adapt && e.cfg.Adaptive && !snap.Frozen() && !st.closed {
		var err error
		builder, err = view.NewBuilder(e.col, e.cfg.Create, e.mapper)
		if err != nil {
			return res, nil, err
		}
	}
	ext := view.NewRangeExtender(lo, hi)
	filter := e.pageFilter(lo, hi, builder != nil, agg != nil)
	var total storage.PageScan
	emit := collect
	if builder != nil {
		emit = func(pid uint64, pg []byte) {
			if collect != nil {
				collect(pid, pg)
			}
			builder.AddPage(int(pid))
		}
	}
	for _, sv := range sources {
		vsp := scanSp.Child("view")
		vsp.SetAttr("lo", int64(sv.Lo()))
		vsp.SetAttr("hi", int64(sv.Hi()))
		vsp.SetAttr("tlb_pages", int64(sv.NumPages()))
		if sv.Lazy() {
			vsp.SetAttr("lazy", 1)
		}
		n, qual, excl := e.scanSource(sv, filter, processed, emit)
		res.PagesScanned += n
		total.Merge(qual)
		ext.ObserveExcluded(excl)
		vsp.SetAttr("pages_scanned", int64(n))
		vsp.Finish()
	}
	res.Count, res.Sum = total.Count, total.Sum
	if agg != nil {
		*agg = Aggregate{Count: total.Count, Sum: total.Sum, Min: total.Min, Max: total.Max}
	}
	e.stats.pagesScanned.Add(uint64(res.PagesScanned))
	if scanSp != nil {
		e.finishScanSpan(scanSp, &res, tierBase)
	}

	if builder == nil {
		return res, nil, nil
	}
	cLo, cHi := ext.Range()
	srcLo, srcHi := snap.CoveredInterval(sources, lo, hi)
	if cLo < srcLo {
		cLo = srcLo
	}
	if cHi > srcHi {
		cHi = srcHi
	}
	mat := tsp.Child("materialize")
	cand, err := builder.Finish(cLo, cHi)
	mat.Finish()
	if err != nil {
		return res, nil, err
	}
	return res, cand, nil
}

// scanSource filters one routed source and returns the pages it read,
// the merged scan of the pages with at least one match (Count/Sum are
// the source's share of the answer) and of the zero-match pages (whose
// boundary fields feed candidate-range extension, §2.2). processed,
// non-nil for a multi-view cover, skips pages an earlier source already
// read. emit, when non-nil, sees every qualifying page in page order on
// the calling goroutine — the candidate builder and the row collectors
// depend on that order.
//
// The scan is one serial pass with dedup and filter fused, the paper's
// single-threaded hot path. It times itself once and feeds the
// scan_ns_per_page histogram and, with an autopilot, the cost model.
func (e *Engine) scanSource(sv *viewset.SnapView, filter func([]byte) storage.PageScan,
	processed *bitvec.Vector, emit func(pid uint64, pg []byte)) (scanned int, qual, excl storage.PageScan) {

	n := sv.NumPages()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		pg := sv.PageBytes(i)
		pid := storage.PageID(pg)
		if processed != nil && processed.TestAndSet(int(pid)) {
			continue
		}
		s := filter(pg)
		scanned++
		if s.Count == 0 {
			excl.Merge(s)
			continue
		}
		qual.Merge(s)
		if emit != nil {
			emit(pid, pg)
		}
	}
	if scanned > 0 {
		elapsed := time.Since(t0)
		if e.model != nil {
			e.model.ObserveScan(scanned, elapsed)
		}
		e.ins.scanNsPerPage.Observe(uint64(elapsed) / uint64(scanned))
	}
	return scanned, qual, excl
}
