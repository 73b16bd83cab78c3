package main

import (
	"strconv"
	"sync"
	"time"

	asv "github.com/asv-db/asv"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/xrand"
)

// stopRule bounds a phase. Operations that end before `from` are the
// lead-in: they run, and the oracle checks them, but they are not measured —
// the heap grows to its working size and the first collections happen
// before the clock starts. The phase ends after min measured operations and
// not before the deadline. A fixed-count phase has neither lead-in nor
// deadline; a timed phase keeps the sample floors of the percentile guard
// as its min. A phase of write cycles may also leave its first `skip` cycles
// unmeasured, whenever they end.
type stopRule struct {
	from, deadline time.Time
	min, skip      int
}

// maxFailures ends a phase whose operations keep failing; the run is not
// correct by then anyway.
const maxFailures = 100

func (s stopRule) done(l *opLog, measured int, now time.Time) bool {
	return l.failed >= maxFailures || (measured >= s.min && !now.Before(s.deadline))
}

func timed(leadIn, seconds float64, min int) stopRule {
	from := time.Now().Add(time.Duration(leadIn * float64(time.Second)))
	return stopRule{from: from, deadline: from.Add(time.Duration(seconds * float64(time.Second))), min: min}
}

func fixed(n int) stopRule { return stopRule{min: n} }

// after leaves the first skip write cycles of the phase unmeasured.
func (s stopRule) after(skip int) stopRule {
	s.skip = skip
	return s
}

// opRecord is one traced operation: a root "op" span, with the engine's
// tree or the client and handler spans grafted below it.
type opRecord struct {
	ID   string    `json:"id"`
	Kind string    `json:"kind"` // query or write
	Span *obs.Span `json:"span"`
}

// opLog is what a phase measured. Clients fill one each; merge pools them.
// Every latency has the offset at which its operation ended, counted from
// the start of the measurement, so that metrics can be taken window by
// window; merging one log after another (adapt_cold's repetitions) shifts
// the offsets and notes where each log ended.
type opLog struct {
	wall               time.Duration
	queryLat, queryEnd []time.Duration
	flushLat, flushEnd []time.Duration
	repEnds            []time.Duration

	queries, rowsWritten int // verified queries; rows written and aligned
	attempted, failed    int
	pages, views, full   int // summed over replies: pages scanned, views used, full-view queries

	samples []sample
	batches []batch
	ops     []opRecord

	// writeDelta sums the counter activity of the write+flush steps, read
	// around each one when the phase counts (see runCycles).
	writeDelta counters
}

func (l *opLog) merge(o *opLog) {
	for _, e := range o.queryEnd {
		l.queryEnd = append(l.queryEnd, l.wall+e)
	}
	for _, e := range o.flushEnd {
		l.flushEnd = append(l.flushEnd, l.wall+e)
	}
	l.wall += o.wall
	l.repEnds = append(l.repEnds, l.wall)
	l.writeDelta = l.writeDelta.plus(o.writeDelta)
	l.queryLat = append(l.queryLat, o.queryLat...)
	l.flushLat = append(l.flushLat, o.flushLat...)
	l.queries += o.queries
	l.rowsWritten += o.rowsWritten
	l.attempted += o.attempted
	l.failed += o.failed
	l.pages += o.pages
	l.views += o.views
	l.full += o.full
	l.samples = append(l.samples, o.samples...)
	l.batches = append(l.batches, o.batches...)
	l.ops = append(l.ops, o.ops...)
}

// one issues query n of a client and books it, as a measurement unless it
// ended before `from`. Sampled replies go to the ledger with the number of
// write batches applied so far.
func (l *opLog) one(t target, client, n int, q query, traced, keep bool, from time.Time) (time.Time, answer) {
	var root *obs.Span
	if traced {
		root = obs.NewTrace("op").Root
	}
	start := time.Now()
	a, err := t.query(client, q, traced)
	end := time.Now()
	l.attempted++
	if err != nil || !a.consistent {
		l.failed++
		return end, a
	}
	if traced {
		if a.span != nil {
			root.Children = append(root.Children, a.span)
			a.span = nil
		}
		root.Finish()
		l.ops = append(l.ops, opRecord{ID: opID(client, n), Kind: "query", Span: root})
	}
	if keep {
		l.samples = append(l.samples, sample{q: q, a: a, version: len(l.batches)})
	}
	if end.Before(from) {
		return end, a
	}
	l.queries++
	l.queryLat = append(l.queryLat, end.Sub(start))
	l.queryEnd = append(l.queryEnd, end.Sub(from))
	l.pages += a.pages
	l.views += a.views
	if a.full {
		l.full++
	}
	return end, a
}

func opID(client, n int) string { return strconv.Itoa(client) + "-" + strconv.Itoa(n) }

// runQueries has each client issue its own stream, closed-loop, until the
// rule says stop. Every sampleEvery-th query of a client is kept for the
// oracle, plus its first and its last.
func runQueries(t target, clients int, stream func(client int) func() query, stop stopRule, traced bool) *opLog {
	logs := make([]*opLog, clients)
	var wg sync.WaitGroup
	begin := time.Now()
	from := latest(begin, stop.from)
	for c := 0; c < clients; c++ {
		logs[c] = &opLog{}
		wg.Add(1)
		go func(c int, l *opLog) {
			defer wg.Done()
			next := stream(c)
			var (
				lastQ    query
				lastA    answer
				lastKept bool
			)
			for n, now := 0, begin; !stop.done(l, l.queries, now); n++ {
				lastQ = next()
				lastKept = n%sampleEvery == 0
				now, lastA = l.one(t, c, n, lastQ, traced, lastKept, from)
			}
			if !lastKept && lastA.consistent {
				l.samples = append(l.samples, sample{q: lastQ, a: lastA})
			}
		}(c, logs[c])
	}
	wg.Wait()
	wall := time.Since(from)
	total := &opLog{}
	for _, l := range logs {
		total.merge(l) // the clients' own logs carry no wall: their offsets stay as they are
	}
	total.wall, total.repEnds = wall, nil
	return total
}

func latest(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// cycleSpec is one write cycle: rows written with UpdateBatch, aligned with
// FlushUpdates, then queries. Tenants take turns.
type cycleSpec struct {
	rows, queries, tenants int
}

// runCycles runs write cycles on one goroutine, a deterministic interleave:
// counts repeat exactly from run to run. With counting set it reads the
// target's counters around every write+flush, outside the timed spans, so
// that alignment work and query work can be told apart.
func runCycles(t target, c cycleSpec, writes *xrand.Rand, next func() query, stop stopRule, traced, counting bool) *opLog {
	l := &opLog{}
	rowCount := t.rowsPerTenant()
	begin := time.Now()
	from := latest(begin, stop.from)
	q := 0
	for n, now := 0, begin; !stop.done(l, len(l.flushLat), now); n++ {
		tenant := n % c.tenants
		ws := make([]asv.RowWrite, c.rows)
		for i := range ws {
			ws[i] = asv.RowWrite{Row: writes.Intn(rowCount), Value: writes.Uint64Range(0, domain)}
		}
		var before counters
		if counting {
			before = t.counters()
		}
		var root, flushSpan *obs.Span
		if traced {
			root = obs.NewTrace("op").Root
			root.Child("update")
		}
		werr := t.write(tenant, ws)
		flushStart := time.Now()
		if traced {
			root.Children[0].Finish()
			flushSpan = root.Child("flush")
		}
		ferr := t.flush(tenant)
		now = time.Now()
		if traced {
			flushSpan.Finish()
			root.Finish()
			l.ops = append(l.ops, opRecord{ID: "w" + strconv.Itoa(n), Kind: "write", Span: root})
		}
		if counting {
			l.writeDelta = l.writeDelta.plus(t.counters().since(before))
		}
		l.attempted += 2
		l.batches = append(l.batches, batch{tenant: tenant, rows: ws})
		if werr != nil || ferr != nil {
			l.failed++
			continue
		}
		if n >= stop.skip && !now.Before(from) {
			l.rowsWritten += len(ws)
			l.flushLat = append(l.flushLat, now.Sub(flushStart))
			l.flushEnd = append(l.flushEnd, now.Sub(from))
		}
		for k := 0; k < c.queries; k++ {
			now, _ = l.one(t, 0, q, next(), traced, q%sampleEvery == 0, from)
			q++
		}
		if n < stop.skip {
			from = latest(from, now) // the measurement starts where the last skipped cycle ends
		}
	}
	l.wall = time.Since(from)
	return l
}
