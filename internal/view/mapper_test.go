package view

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/vmsim"
)

// mapRequests returns n requests that each map one page of col's file
// into its own slot of a fresh reservation; request i's Done calls
// done(i, err).
func mapRequests(t *testing.T, col *storage.Column, n int, done func(i int, err error)) []Request {
	t.Helper()
	addr, err := col.Space().MmapAnon(n)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			AS:       col.Space(),
			Addr:     addr + vmsim.Addr(i)*vmsim.PageSize,
			File:     col.File(),
			FilePage: i % col.NumPages(),
			Pages:    1,
			Done:     func(err error) { done(i, err) },
		}
	}
	return reqs
}

// TestMapperConcurrentExactlyOnce: requests from many producers are each
// mapped, and their Done run, exactly once — the property every builder
// waiting on its own requests relies on.
func TestMapperConcurrentExactlyOnce(t *testing.T) {
	const producers, perProducer = 8, 300
	col := testColumn(t, 16, dist.NewUniform(1, 0, 1000))
	runs := make([]atomic.Int32, producers*perProducer)
	var failed atomic.Int32
	reqs := mapRequests(t, col, len(runs), func(i int, err error) {
		if err != nil {
			failed.Add(1)
		}
		runs[i].Add(1)
	})

	m := NewMapper()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(own []Request) {
			defer wg.Done()
			for _, r := range own {
				if err := m.Enqueue(r); err != nil {
					t.Errorf("Enqueue: %v", err)
					return
				}
			}
		}(reqs[p*perProducer : (p+1)*perProducer])
	}
	wg.Wait()
	m.Stop()

	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Fatalf("request %d: Done ran %d times", i, n)
		}
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d mappings failed", n)
	}
}

// TestMapperConcurrentEnqueueStop races Enqueue against Stop while the
// queue is full and senders are blocked: nothing panics, every accepted
// request's Done has run when Stop returns, and every rejected request
// gets an error and never runs.
func TestMapperConcurrentEnqueueStop(t *testing.T) {
	const producers, perProducer = 4, 2 * mapperQueueCap / 3
	col := testColumn(t, 16, dist.NewUniform(2, 0, 1000))
	n := producers * perProducer
	runs := make([]atomic.Int32, n)
	gate, stalled := make(chan struct{}), make(chan struct{})
	reqs := mapRequests(t, col, n, func(i int, err error) {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
		if i == 0 {
			// Hold the mapping goroutine so the queue fills up and the
			// producers block in Enqueue.
			close(stalled)
			<-gate
		}
		runs[i].Add(1)
	})

	m := NewMapper()
	if err := m.Enqueue(reqs[0]); err != nil {
		t.Fatal(err)
	}
	<-stalled
	accepted := make([]bool, n)
	rejected := make([]bool, n)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			for i := max(first, 1); i < first+perProducer; i++ {
				err := m.Enqueue(reqs[i])
				accepted[i], rejected[i] = err == nil, err != nil
			}
		}(p * perProducer)
	}

	for len(m.reqs) < mapperQueueCap {
		runtime.Gosched()
	}
	stopped := make(chan struct{})
	go func() {
		m.Stop()
		close(stopped)
	}()
	// Wait until Stop is queued behind the blocked senders (a pending
	// writer makes TryRLock fail), or has already closed the queue in a
	// moment when no sender held the lock.
	for m.mu.TryRLock() {
		closed := m.closed
		m.mu.RUnlock()
		if closed {
			break
		}
		runtime.Gosched()
	}
	atStop := make([]int32, n)
	close(gate)
	<-stopped
	for i := range runs {
		atStop[i] = runs[i].Load()
	}
	wg.Wait()
	accepted[0] = true

	nAccepted := 0
	for i := range runs {
		switch {
		case accepted[i]:
			nAccepted++
			if atStop[i] != 1 {
				t.Fatalf("accepted request %d: Done ran %d times before Stop returned", i, atStop[i])
			}
		case rejected[i]:
			if runs[i].Load() != 0 {
				t.Fatalf("rejected request %d ran", i)
			}
		default:
			t.Fatalf("request %d neither accepted nor rejected", i)
		}
	}
	if nAccepted <= mapperQueueCap {
		t.Fatalf("premise: %d requests accepted, want more than the queue holds", nAccepted)
	}
	if err := m.Enqueue(reqs[1]); err == nil {
		t.Fatal("Enqueue after Stop accepted a request")
	}
}

// waitLimit bounds every wait in the tests below, so a lost wake-up fails
// the test instead of hanging it.
const waitLimit = 5 * time.Second

// within fails t unless ch is closed within waitLimit.
func within(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(waitLimit):
		t.Fatalf("%s: not done within %v", what, waitLimit)
	}
}

// heldRequests returns n requests from mapRequests whose Done counts its
// runs in runs and reports mapping errors. Request 0's Done holds the
// mapping goroutine: held is closed once it runs, and the goroutine stays
// there until release is called, so later requests queue behind it.
func heldRequests(t *testing.T, n int) (reqs []Request, runs []atomic.Int32, held <-chan struct{}, release func()) {
	t.Helper()
	col := testColumn(t, 16, dist.NewUniform(3, 0, 1000))
	runs = make([]atomic.Int32, n)
	gate, stalled := make(chan struct{}), make(chan struct{})
	reqs = mapRequests(t, col, n, func(i int, err error) {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
		if i == 0 {
			close(stalled)
			select {
			case <-gate:
			case <-time.After(waitLimit):
				t.Errorf("mapping goroutine held longer than %v", waitLimit)
			}
		}
		runs[i].Add(1)
	})
	return reqs, runs, stalled, sync.OnceFunc(func() { close(gate) })
}

// fillHeld starts a Mapper, enqueues reqs[0] and waits until its Done
// holds the mapping goroutine, then enqueues reqs[1:] — which must fit in
// the queue.
func fillHeld(t *testing.T, reqs []Request, held <-chan struct{}) *Mapper {
	t.Helper()
	m := NewMapper()
	if err := m.Enqueue(reqs[0]); err != nil {
		t.Fatal(err)
	}
	within(t, held, "mapping goroutine reaching request 0")
	for i := 1; i < len(reqs); i++ {
		if err := m.Enqueue(reqs[i]); err != nil {
			t.Fatalf("Enqueue(%d): %v", i, err)
		}
	}
	return m
}

// TestMapperIdleWakesOnEnqueue: a mapping goroutine waiting on an empty
// queue maps a request enqueued later, without Stop — a builder waits on
// its own requests' Done, not on the mapper's end.
func TestMapperIdleWakesOnEnqueue(t *testing.T) {
	col := testColumn(t, 16, dist.NewUniform(4, 0, 1000))
	mapped := make(chan struct{})
	reqs := mapRequests(t, col, 1, func(_ int, err error) {
		if err != nil {
			t.Errorf("mapping: %v", err)
		}
		close(mapped)
	})
	m := NewMapper()
	defer m.Stop()
	time.Sleep(10 * time.Millisecond) // let the mapping goroutine block on the empty queue
	if err := m.Enqueue(reqs[0]); err != nil {
		t.Fatal(err)
	}
	within(t, mapped, "request enqueued to an idle mapper")
}

// TestMapperBlockedEnqueueWakesOnDrain: Enqueue into a full queue blocks,
// and returns accepted once the mapping goroutine drains a slot.
func TestMapperBlockedEnqueueWakesOnDrain(t *testing.T) {
	reqs, runs, held, release := heldRequests(t, mapperQueueCap+2)
	defer release()
	m := fillHeld(t, reqs[:mapperQueueCap+1], held)

	sent := make(chan struct{})
	var err error
	go func() {
		err = m.Enqueue(reqs[mapperQueueCap+1])
		close(sent)
	}()
	select {
	case <-sent:
		t.Fatal("Enqueue into a full queue returned without blocking")
	case <-time.After(10 * time.Millisecond):
	}
	release()
	within(t, sent, "Enqueue blocked on a full queue")
	if err != nil {
		t.Fatalf("blocked Enqueue: %v", err)
	}
	m.Stop()
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Fatalf("request %d: Done ran %d times", i, n)
		}
	}
}

// TestMapperStopDrains: Stop returns only after every queued request has
// been mapped and its Done run; Enqueue after Stop is rejected.
func TestMapperStopDrains(t *testing.T) {
	reqs, runs, held, release := heldRequests(t, 5)
	defer release()
	m := fillHeld(t, reqs, held)

	stopped := make(chan struct{})
	go func() {
		m.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while requests were still queued")
	case <-time.After(10 * time.Millisecond):
	}
	release()
	within(t, stopped, "Stop")
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Fatalf("request %d: Done ran %d times before Stop returned", i, n)
		}
	}
	if err := m.Enqueue(reqs[1]); !errors.Is(err, errMapperStopped) {
		t.Fatalf("Enqueue after Stop: %v, want %v", err, errMapperStopped)
	}
}

// TestMapperStopWakesIdleLoop: Stop on a mapper whose goroutine waits on
// an empty queue wakes it and returns.
func TestMapperStopWakesIdleLoop(t *testing.T) {
	m := NewMapper()
	time.Sleep(10 * time.Millisecond) // let the mapping goroutine block on the empty queue
	stopped := make(chan struct{})
	go func() {
		m.Stop()
		close(stopped)
	}()
	within(t, stopped, "Stop of an idle mapper")
	within(t, m.done, "mapping goroutine exit")
}

// TestMapperStopWakesBlockedEnqueue: a sender blocked on a full queue
// while Stop runs is not stranded. The mapping goroutine keeps draining,
// so the send completes and is accepted, its Done runs before Stop
// returns, and later sends are rejected.
func TestMapperStopWakesBlockedEnqueue(t *testing.T) {
	reqs, runs, held, release := heldRequests(t, mapperQueueCap+2)
	defer release()
	m := fillHeld(t, reqs[:mapperQueueCap+1], held)

	blocked := mapperQueueCap + 1
	sent := make(chan struct{})
	var err error
	go func() {
		err = m.Enqueue(reqs[blocked])
		close(sent)
	}()
	// Wait until the sender holds the lock shared (TryLock fails), which
	// it keeps while blocked on the full queue.
	deadline := time.Now().Add(waitLimit)
	for m.mu.TryLock() {
		m.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("sender not blocked in Enqueue within %v", waitLimit)
		}
		runtime.Gosched()
	}
	stopped := make(chan struct{})
	go func() {
		m.Stop()
		close(stopped)
	}()
	// Wait until Stop waits for the lock the blocked sender holds shared:
	// a pending writer makes TryRLock fail.
	for m.mu.TryRLock() {
		m.mu.RUnlock()
		if time.Now().After(deadline) {
			t.Fatalf("Stop not waiting on the blocked sender within %v", waitLimit)
		}
		runtime.Gosched()
	}
	release()
	within(t, sent, "Enqueue blocked while Stop runs")
	within(t, stopped, "Stop")
	if err != nil {
		t.Fatalf("blocked Enqueue: %v", err)
	}
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Fatalf("request %d: Done ran %d times before Stop returned", i, n)
		}
	}
	if err := m.Enqueue(reqs[1]); !errors.Is(err, errMapperStopped) {
		t.Fatalf("Enqueue after Stop: %v, want %v", err, errMapperStopped)
	}
}

// TestMapperConcurrentStop: Stop called from several goroutines at once
// closes the queue once — no panic — and every call returns after the
// drain.
func TestMapperConcurrentStop(t *testing.T) {
	const stoppers = 4
	reqs, runs, held, release := heldRequests(t, 8)
	defer release()
	m := fillHeld(t, reqs, held)

	var wg sync.WaitGroup
	for s := 0; s < stoppers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Stop()
		}()
	}
	release()
	allStopped := make(chan struct{})
	go func() {
		wg.Wait()
		close(allStopped)
	}()
	within(t, allStopped, "concurrent Stop calls")
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Fatalf("request %d: Done ran %d times", i, n)
		}
	}
	m.Stop()
}
