package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	asv "github.com/asv-db/asv"
	"github.com/asv-db/asv/internal/xrand"
)

// Selectivities: 1 % of the domain in-process (the paper's §3.2 fixed
// selectivity), 0.1 % over HTTP (the dashboard shape: a few pages each).
const (
	queryWidth = domain / 100
	hotWidth   = domain / 1000
)

// instance is one set-up system under test with its ledger.
type instance struct {
	t   target
	led *ledger
}

// workload is one named op script over a target.
type workload struct {
	name    string
	clients int
	tenants int
	// fresh marks adapt_cold: every repetition sets up its own instance and
	// runs a fixed number of queries from zero views, so set-up repeats by
	// itself and adaptation is inside the clock.
	fresh bool
	// cycle is non-zero for mixed_update, whose timed phase is write cycles.
	cycle cycleSpec
	// tail is the write tail of a read workload, in measured cycles per run.
	tail int
	// setup creates, fills and warms an instance from the seed.
	setup func(seed uint64, traced bool) (*instance, error)
	// stream returns client c's query stream for that instance.
	stream func(seed uint64, c int) func() query
	// prefix is the fixed op count per client of the traced pass (queries,
	// or cycles on mixed_update).
	prefix int
}

// uniformQueries draws fixed-width ranges at uniform positions.
func uniformQueries(seed uint64, width uint64, kind queryKind) func() query {
	r := xrand.New(seed)
	return func() query {
		lo := r.Uint64n(domain - width + 1)
		return query{lo: lo, hi: lo + width, kind: kind}
	}
}

// warm runs n adaptive queries, the set-up's warm-up.
func warm(t target, seed uint64, n int, kind queryKind) error {
	next := uniformQueries(seed, queryWidth, kind)
	for i := 0; i < n; i++ {
		if _, err := t.query(0, next(), false); err != nil {
			return fmt.Errorf("warm-up query %d: %w", i, err)
		}
	}
	return nil
}

func columnInstance(cfg asv.Config, g genSpec, warmSeed uint64, warmQueries int, kind queryKind) (*instance, error) {
	t, err := newColTarget(cfg, g)
	if err != nil {
		return nil, err
	}
	if err := warm(t, warmSeed, warmQueries, kind); err != nil {
		_ = t.close() //asv:ignore-err unwinding a failed warm-up; the warm-up error is returned
		return nil, err
	}
	return &instance{t: t, led: &ledger{gens: []genSpec{g}}}, nil
}

// hotSet is serve_http's working set: ranges of hotWidth per tenant.
func hotSet(seed uint64, tenants, n int) [][]query {
	out := make([][]query, tenants)
	for t := range out {
		next := uniformQueries(sub(seed, streamHot, t), hotWidth, aggregate)
		for i := 0; i < n; i++ {
			q := next()
			q.tenant = t
			out[t] = append(out[t], q)
		}
	}
	return out
}

func clientCount() int { return min(2, runtime.NumCPU()) }

// workloads defines the four workloads at the given sizes.
func workloads(sc scale) map[string]workload {
	multi := asv.DefaultConfig()
	multi.Mode = asv.MultiView
	plainStream := func(seed uint64, c int) func() query {
		return uniformQueries(sub(seed, streamQueries, c), queryWidth, plain)
	}
	return map[string]workload{
		adaptCold: {
			name: adaptCold, clients: 1, tenants: 1, fresh: true, tail: sc.tailCycles,
			setup: func(seed uint64, _ bool) (*instance, error) {
				g := genSpec{"sine", sub(seed, streamFill, 0), sc.adaptPages}
				return columnInstance(asv.DefaultConfig(), g, 0, 0, plain)
			},
			stream: plainStream,
			prefix: sc.warmQueries,
		},
		steadyRead: {
			name: steadyRead, clients: clientCount(), tenants: 1, tail: sc.tailCycles,
			setup: func(seed uint64, _ bool) (*instance, error) {
				g := genSpec{"sine", sub(seed, streamFill, 0), sc.steadyPages}
				return columnInstance(multi, g, sub(seed, streamWarm, 0), sc.warmQueries, aggregate)
			},
			stream: func(seed uint64, c int) func() query {
				return uniformQueries(sub(seed, streamQueries, c), queryWidth, aggregate)
			},
			prefix: sc.prefixQueries / clientCount(),
		},
		mixedUpdate: {
			name: mixedUpdate, clients: 1, tenants: 1,
			cycle: cycleSpec{rows: sc.cycleRows, queries: sc.cycleQueries, tenants: 1},
			setup: func(seed uint64, _ bool) (*instance, error) {
				g := genSpec{"sine", sub(seed, streamFill, 0), sc.mixedPages}
				return columnInstance(asv.DefaultConfig(), g, sub(seed, streamWarm, 0), sc.warmQueries, plain)
			},
			stream: plainStream,
			prefix: sc.prefixCycles,
		},
		serveHTTP: {
			name: serveHTTP, clients: clientCount(), tenants: 2, tail: sc.serveTailCycles,
			setup: func(seed uint64, traced bool) (*instance, error) {
				t, err := newHTTPTarget(2, clientCount(), traced)
				if err != nil {
					return nil, err
				}
				gens := []genSpec{
					{"linear", sub(seed, streamFill, 0), sc.servePages},
					{"linear", sub(seed, streamFill, 1), sc.servePages},
				}
				err = t.createColumns(gens, 2)
				for _, qs := range hotSet(seed, 2, sc.hotRanges) {
					for i := 0; i < 2*len(qs) && err == nil; i++ {
						_, err = t.query(0, qs[i%len(qs)], false)
					}
				}
				if err != nil {
					_ = t.close() //asv:ignore-err unwinding a failed set-up; the set-up error is returned
					return nil, err
				}
				return &instance{t: t, led: &ledger{gens: gens}}, nil
			},
			// 80 % aggregates, 20 % row IDs, over the hot set. (The issue had
			// 10 %; p90 would then sit on the edge between the two kinds.)
			stream: func(seed uint64, c int) func() query {
				hot := hotSet(seed, 2, sc.hotRanges)
				r := xrand.New(sub(seed, streamQueries, c))
				return func() query {
					q := hot[r.Intn(2)][r.Intn(sc.hotRanges)]
					if r.Intn(5) == 0 {
						q.kind = rows
					}
					return q
				}
			},
			prefix: sc.prefixRequests / clientCount(),
		},
	}
}

// pass is what one pass over a workload measured.
type pass struct {
	log     *opLog    // the timed (or prefix) phase
	tail    *opLog    // the write tail of a read workload; nil on mixed_update
	setups  []float64 // seconds per set-up
	delta   counters  // counter activity of log and tail together, and the end state
	memSys  uint64    // bytes held from the OS after the phases, before the oracle (see heldBytes)
	memPeak uint64    // runtime.MemStats.Sys at the same point: the most the runtime ever mapped
	checks  int       // oracle checks made
}

// release closes an instance that is done, collects it and hands its memory
// back, so that every set-up starts like the first: on pages it has to fault
// in. (Left to itself the runtime returns freed memory in the background,
// and adapt_cold's 0.1 s set-ups took 0.06 or 0.15 s depending on how far
// that had got.)
func release(inst *instance) error {
	err := inst.t.close()
	debug.FreeOSMemory()
	return err
}

// heldBytes is what the process holds from the operating system once it has
// collected and handed back all it can: MemStats.Sys less HeapReleased after
// FreeOSMemory, that is the live data, the heap's fragmentation around it and
// the runtime's own tables. Sys alone, returned as peak, is the high-water
// mark of the heap: two live sizes plus whatever the clients allocated while
// some collection of the run was marking, which on the same code and seed
// read 221 to 310 MiB on steady_read where this reads 108 to 109.
func heldBytes() (held, peak uint64) {
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Sys - ms.HeapReleased, ms.Sys
}

// leadIn is the unmeasured start of a timed phase: a second, or a tenth of
// a phase shorter than ten.
func leadIn(seconds float64) float64 { return min(1, seconds/10) }

// run executes the workload once. With prefix unset it is the timed pass of
// --trace 0; otherwise the fixed-count prefix of --trace 1, traced or not,
// on one instance, with a quarter of the write tail and the counters read.
//
// The timed pass sets up several instances, each from its own seeds, and
// times every set-up. adapt_cold measures all of them: each runs its 400
// queries from zero views, until at least minReps have run and the clock is
// up. The other workloads measure the last one, after a lead-in, for the
// length of the clock. Every instance, once adapted — by its warm-up, or by
// adapt_cold's queries — takes its share of the write tail, so that the
// flush metrics average over as many view sets as there are set-ups.
func (w workload) run(sc scale, seed uint64, seconds float64, prefix, traced bool) (*pass, error) {
	p := &pass{log: &opLog{}}
	instances, tailTotal := sc.setupRepeats, w.tail
	if w.fresh {
		instances = sc.minReps
	}
	if prefix {
		instances, tailTotal = 1, tailTotal/4
	}
	tailShare := (tailTotal + instances - 1) / instances
	if w.fresh && !prefix {
		tailShare = sc.tailPerRep // the number of repetitions is the clock's to decide
	}
	if w.tail > 0 { // mixed_update's write metrics come from its own cycles
		p.tail = &opLog{}
	}

	var (
		inst    *instance
		ledgers []*ledger
		before  counters
	)
	for i := 0; ; i++ {
		// Instance seeds count down to the measured instance, which is always
		// the --seed's own: the one the traced pass replays.
		iseed := seed + uint64(max(instances-1-i, 0))
		if w.fresh {
			iseed = seed + uint64(i)
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(iseed, traced); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
		// Collect outside every clock: what follows then starts with the
		// heap goal the set-up's live data implies, whatever the collector
		// happened to be doing when the set-up ended.
		runtime.GC()
		if prefix {
			before = inst.t.counters()
		}
		led := inst.led
		stream := func(c int) func() query { return w.stream(iseed, c) }
		if w.fresh {
			l := runQueries(inst.t, w.clients, stream, fixed(sc.warmQueries), traced)
			led.add(l)
			p.log.merge(l)
		}
		last := i+1 >= instances && (!w.fresh || prefix || p.log.wall.Seconds() >= seconds)

		if p.tail != nil {
			cycles := tailShare
			if last {
				cycles = max(cycles, tailTotal-len(p.tail.flushLat))
			}
			spec := cycleSpec{rows: sc.tailRows, tenants: w.tenants}
			stop := fixed(cycles)
			if !prefix {
				// A tenant's first flush pays what no later one does (twice a
				// later one's time on steady_read): lead-in, like the first
				// second of a timed phase. The prefix passes count every cycle.
				stop = stop.after(w.tenants)
			}
			l := runCycles(inst.t, spec, xrand.New(sub(iseed, streamTail, 0)), nil, stop, traced, prefix)
			led.add(l)
			p.tail.merge(l)
		}
		if last && !w.fresh {
			var l *opLog
			if w.cycle.rows > 0 {
				stop := timed(leadIn(seconds), seconds, sc.minCycles)
				if prefix {
					stop = fixed(w.prefix)
				}
				l = runCycles(inst.t, w.cycle, xrand.New(sub(iseed, streamWrites, 0)), stream(0), stop, traced, prefix)
			} else {
				stop := timed(leadIn(seconds), seconds, (sc.minQueries+w.clients-1)/w.clients)
				if prefix {
					stop = fixed(w.prefix)
				}
				l = runQueries(inst.t, w.clients, stream, stop, traced)
			}
			led.add(l)
			p.log.merge(l)
		}
		// One more query per tenant, untimed, checks the state the writes left.
		final := &opLog{}
		for tenant := 0; tenant < w.tenants; tenant++ {
			q := stream(0)()
			q.tenant = tenant
			final.one(inst.t, 0, 0, q, false, true, time.Time{})
		}
		led.add(final)
		p.log.attempted += final.attempted
		p.log.failed += final.failed
		ledgers = append(ledgers, led)
		if last {
			break
		}
		if err := release(inst); err != nil {
			return nil, err
		}
	}

	if prefix {
		p.delta = inst.t.counters().since(before)
	}
	if h, ok := inst.t.(*httpTarget); ok {
		p.log.failed += int(h.refused())
	}
	p.memSys, p.memPeak = heldBytes()

	for i, led := range ledgers {
		var live target
		if i == len(ledgers)-1 {
			live = inst.t
		}
		checked, wrong, err := led.verify(live)
		if err != nil {
			return nil, err
		}
		p.checks += checked
		p.log.failed += wrong
		runtime.GC()
	}
	return p, inst.t.close()
}
