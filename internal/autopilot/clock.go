package autopilot

import (
	"sync"
	"time"
)

// Clock abstracts time for the autopilot so every behaviour — the
// MaxFlushLatency deadline, the maintenance ticker, the flush-latency
// percentiles — is testable without sleeping. Production code uses the
// real clock; tests inject a ManualClock and advance it explicitly.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers one tick once d has elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTicker returns a ticker firing every d.
	NewTicker(d time.Duration) Ticker
}

// Ticker is the minimal time.Ticker surface the autopilot needs.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// realClock is the production Clock backed by package time.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) NewTicker(d time.Duration) Ticker       { return realTicker{time.NewTicker(d)} }

type realTicker struct{ t *time.Ticker }

func (t realTicker) C() <-chan time.Time { return t.t.C }
func (t realTicker) Stop()               { t.t.Stop() }

// ManualClock is a deterministic Clock for tests: time only moves when
// Advance is called, and pending timers/tickers fire synchronously during
// the advance. BlockUntilTimers lets a test wait (without sleeping) until
// the code under test has armed its timer, closing the race between
// arming and advancing.
type ManualClock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	now     time.Time
	timers  []*manualTimer
	tickers []*manualTicker
}

// NewManualClock returns a ManualClock starting at the given instant.
func NewManualClock(start time.Time) *ManualClock {
	c := &ManualClock{now: start}
	c.cond = sync.NewCond(&c.mu)
	return c
}

type manualTimer struct {
	deadline time.Time
	ch       chan time.Time
}

type manualTicker struct {
	clock  *ManualClock
	period time.Duration
	next   time.Time
	ch     chan time.Time
	done   bool
}

func (t *manualTicker) C() <-chan time.Time { return t.ch }

func (t *manualTicker) Stop() {
	t.clock.mu.Lock()
	t.done = true
	t.clock.mu.Unlock()
}

// Now returns the manual instant.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After arms a one-shot timer d from the current manual instant.
func (c *ManualClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &manualTimer{deadline: c.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		t.ch <- c.now
	} else {
		c.timers = append(c.timers, t)
	}
	c.cond.Broadcast()
	return t.ch
}

// NewTicker arms a recurring ticker with the given period.
func (c *ManualClock) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("autopilot: non-positive ticker period")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &manualTicker{clock: c, period: d, next: c.now.Add(d), ch: make(chan time.Time, 1)}
	c.tickers = append(c.tickers, t)
	c.cond.Broadcast()
	return t
}

// Advance moves the manual instant forward by d, firing every timer and
// ticker whose deadline is reached (tickers coalesce missed periods into
// one tick, like time.Ticker under a slow receiver).
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	kept := c.timers[:0]
	for _, t := range c.timers {
		if !t.deadline.After(c.now) {
			t.ch <- c.now
			continue
		}
		kept = append(kept, t)
	}
	c.timers = kept
	for _, t := range c.tickers {
		if t.done || t.next.After(c.now) {
			continue
		}
		select {
		case t.ch <- c.now:
		default: // receiver lags; coalesce
		}
		for !t.next.After(c.now) {
			t.next = t.next.Add(t.period)
		}
	}
}

// BlockUntilTimers blocks until at least n one-shot timers are armed —
// the handshake a test needs before Advance, so the deadline it is about
// to trigger was computed from the pre-advance instant.
func (c *ManualClock) BlockUntilTimers(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.timers) < n {
		c.cond.Wait()
	}
}
