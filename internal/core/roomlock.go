package core

import (
	"sync"
	"time"

	"github.com/asv-db/asv/internal/obs"
)

// The engine's locking discipline needs three access modes, one more than
// a sync.RWMutex offers:
//
//   - scan-shared: any number of live-set readers at once (Views, the
//     autopilot's demotion sweep; queries read published states and
//     never enter a room),
//   - update-shared: any number of Update callers at once (each also
//     holds a per-shard buffer lock, which serializes same-page writes),
//   - exclusive: flush/alignment, view-set mutation, close.
//
// The two shared modes must exclude each other: an Update writes column
// page bytes the scans read, and a scan may only run when the views
// reflect every applied write (§2.4). roomLock implements this as room
// synchronization: at most one "room" (scan, update, or exclusive) is
// open at a time; any number of holders of the open shared room proceed
// concurrently; the exclusive room admits exactly one.
//
// Handover is batched and round-robin. While a shared room is open with
// no strangers waiting, same-kind arrivals join immediately. As soon as
// another kind queues, new arrivals queue too (the room is no longer
// extended), the room drains, and the next room is chosen round-robin
// among the waiting kinds — every waiter of that kind is admitted in one
// batch. This keeps a saturating stream of readers from starving writers
// and vice versa, which is exactly the regime the mixed read/write
// benchmark panel measures.
const (
	roomNone = iota
	roomScan
	roomUpdate
	roomExcl
	roomKinds
)

// roomLock is the engine's three-mode lock. The zero value is ready to
// use. It must not be copied after first use.
type roomLock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	room    int // currently open room (roomNone when idle)
	active  int // holders currently inside the open room
	grants  int // handover admissions not yet consumed by woken waiters
	phase   uint64
	waiting [roomKinds]int
	rr      int // round-robin offset for the next handover choice

	// obs, when set (once, before first use), observes per-mode wait and
	// hold time and journals handovers. openedAt stamps the current
	// room's opening (guarded by mu). Fast admissions into an already-
	// open room never touch the clock — only queued entries and room
	// transitions pay for telemetry.
	obs      *roomObs
	openedAt time.Time
}

// roomObs is the room lock's telemetry sink: per-mode wait/hold
// histograms (indexed by room kind) plus the engine's event journal for
// handover events (nil-safe).
type roomObs struct {
	wait    [roomKinds]*obs.Histogram
	hold    [roomKinds]*obs.Histogram
	journal *obs.Journal
}

// RLock enters the scan-shared room.
//
//asv:acquires=scan
func (l *roomLock) RLock() { l.enter(roomScan) }

// RUnlock leaves the scan-shared room.
//
//asv:releases=scan
func (l *roomLock) RUnlock() { l.leave() }

// UpdateLock enters the update-shared room (concurrent Update callers).
//
//asv:acquires=update
func (l *roomLock) UpdateLock() { l.enter(roomUpdate) }

// UpdateUnlock leaves the update-shared room.
//
//asv:releases=update
func (l *roomLock) UpdateUnlock() { l.leave() }

// Lock enters the exclusive room (flush/alignment, view-set mutation).
//
//asv:acquires=exclusive
func (l *roomLock) Lock() { l.enter(roomExcl) }

// Unlock leaves the exclusive room.
//
//asv:releases=exclusive
func (l *roomLock) Unlock() { l.leave() }

func (l *roomLock) enter(kind int) {
	l.mu.Lock()
	if l.cond == nil {
		l.cond = sync.NewCond(&l.mu)
	}
	if l.fastAdmit(kind) {
		l.mu.Unlock()
		return
	}
	var t0 time.Time
	if l.obs != nil {
		t0 = time.Now()
	}
	l.waiting[kind]++
	// A woken waiter consumes one handover grant of its room — but only
	// a waiter that queued BEFORE the handover (phase check). Without it,
	// a goroutine that cycles the lock quickly on a busy machine re-queues
	// between the handover broadcast and an older waiter's wakeup and
	// steals its grant every time, starving the older waiter for as long
	// as the cycler stays hot. Each handover bumps the phase, so grants
	// of phase p are consumable exactly by the waiting[kind] goroutines
	// that queued in earlier phases — the count the snapshot took.
	myPhase := l.phase
	for l.room != kind || l.grants == 0 || l.phase == myPhase {
		l.cond.Wait()
	}
	l.grants--
	l.waiting[kind]--
	l.active++
	l.mu.Unlock()
	if l.obs != nil {
		l.obs.wait[kind].Observe(uint64(time.Since(t0)))
	}
}

// fastAdmit admits the caller without queueing when possible. Caller
// holds l.mu.
func (l *roomLock) fastAdmit(kind int) bool {
	if l.room == roomNone {
		// Idle. Handover always opens a room while waiters exist, so
		// roomNone implies nobody is queued; open the room directly.
		l.room = kind
		l.active = 1
		if l.obs != nil {
			l.openedAt = time.Now()
		}
		return true
	}
	if l.room != kind || kind == roomExcl {
		return false
	}
	// The caller's shared room is open: join it, unless another kind is
	// waiting — extending the room past queued strangers would starve
	// them.
	for k := roomNone + 1; k < roomKinds; k++ {
		if k != kind && l.waiting[k] > 0 {
			return false
		}
	}
	l.active++
	return true
}

func (l *roomLock) leave() {
	l.mu.Lock()
	l.active--
	// grants > 0 means woken waiters of the open room are still on their
	// way in; the room stays open for them even at active == 0.
	if l.active == 0 && l.grants == 0 {
		l.handover()
	}
	l.mu.Unlock()
}

// handover closes the drained room and opens the next one round-robin
// among the kinds with waiters, granting every current waiter of the
// chosen shared room (or exactly one exclusive waiter) admission. Caller
// holds l.mu.
func (l *roomLock) handover() {
	from := l.room
	if l.obs != nil && from != roomNone {
		l.obs.hold[from].Observe(uint64(time.Since(l.openedAt)))
	}
	const kinds = roomKinds - 1 // selectable rooms: scan, update, excl
	for i := 0; i < kinds; i++ {
		k := (l.rr+i)%kinds + 1
		if l.waiting[k] == 0 {
			continue
		}
		l.rr = k % kinds // next handover starts searching after k
		l.room = k
		l.phase++
		if k == roomExcl {
			l.grants = 1
		} else {
			l.grants = l.waiting[k]
		}
		if l.obs != nil {
			l.openedAt = time.Now()
			l.obs.journal.Record(obs.EvRoomHandover, int64(from), int64(k), int64(l.grants))
		}
		l.cond.Broadcast()
		return
	}
	l.room = roomNone
}
