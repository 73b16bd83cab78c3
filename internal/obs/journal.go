package obs

import (
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// EventType names one kind of engine event in the journal.
type EventType uint32

// The engine event vocabulary. The A/B/C payload words are typed per
// event; see the String method and the README event-type table for the
// per-event meaning.
const (
	// EvEpochPublished: a new engine state was published.
	// A=generation, B=partial views captured, C=frames queued for
	// retirement.
	EvEpochPublished EventType = iota + 1
	// EvEpochRetired: a superseded state drained and was reclaimed.
	// A=generation, B=publish→drain lag ns, C=frames freed.
	EvEpochRetired
	// EvDutyBegin: an autopilot duty entered the engine.
	// A=duty code (see Duty* constants).
	EvDutyBegin
	// EvDutyEnd: the duty returned. A=duty code, B=work done
	// (views evicted / rebuilt / pages demoted / writes applied),
	// C=1 when the duty failed, 0 on success.
	EvDutyEnd
	// EvTierDemoteBatch: a demotion sweep moved pages to the cold
	// tier. A=pages demoted, B=pages requested.
	EvTierDemoteBatch
	// EvTierPromoteBatch: scans promoted pages back to the hot tier
	// since the previous observation. A=pages promoted.
	EvTierPromoteBatch
	// EvViewInserted: a candidate view entered the view set.
	// A=lo, B=hi of the view's interval.
	EvViewInserted
	// EvViewReplaced: a candidate replaced an existing view. A=lo, B=hi.
	EvViewReplaced
	// EvViewDiscarded: a candidate was discarded unadmitted. A=lo, B=hi.
	EvViewDiscarded
	// EvViewExpired: maintenance expired a cold view. A=lo, B=hi.
	EvViewExpired
	// EvViewRebuilt: maintenance rebuilt a fragmented view. A=lo, B=hi.
	EvViewRebuilt
)

// String returns the event type's stable name.
func (t EventType) String() string {
	switch t {
	case EvEpochPublished:
		return "epoch_published"
	case EvEpochRetired:
		return "epoch_retired"
	case EvDutyBegin:
		return "duty_begin"
	case EvDutyEnd:
		return "duty_end"
	case EvTierDemoteBatch:
		return "tier_demote_batch"
	case EvTierPromoteBatch:
		return "tier_promote_batch"
	case EvViewInserted:
		return "view_inserted"
	case EvViewReplaced:
		return "view_replaced"
	case EvViewDiscarded:
		return "view_discarded"
	case EvViewExpired:
		return "view_expired"
	case EvViewRebuilt:
		return "view_rebuilt"
	default:
		return "unknown"
	}
}

// Autopilot duty codes carried in EvDutyBegin/EvDutyEnd payload word A.
const (
	DutyApply int64 = iota + 1
	DutyAlign
	DutyEvict
	DutyRebuild
	DutyDemote
)

// Event is one drained journal entry. Seq is globally unique and
// monotone in claim order; Time comes from the journal's clock.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time int64     `json:"time_ns"`
	Type EventType `json:"type"`
	A    int64     `json:"a"`
	B    int64     `json:"b"`
	C    int64     `json:"c"`
}

// String renders the event as one line.
func (e Event) String() string {
	var b strings.Builder
	b.WriteString("#")
	b.Write(appendUint(nil, e.Seq))
	b.WriteString(" t=")
	b.WriteString(formatInt(e.Time))
	b.WriteString(" ")
	b.WriteString(e.Type.String())
	b.WriteString(" a=")
	b.WriteString(formatInt(e.A))
	b.WriteString(" b=")
	b.WriteString(formatInt(e.B))
	b.WriteString(" c=")
	b.WriteString(formatInt(e.C))
	return b.String()
}

// journalSlot is one ring entry. Every field is atomic so concurrent
// Record/Events stay race-free; seq is both the slot's claim word and
// its seqlock word: zero means empty, slotBusy set means a writer owns
// the slot, and otherwise it is the sequence number of the event the
// payload holds.
type journalSlot struct {
	seq atomic.Uint64
	t   atomic.Int64
	typ atomic.Uint32
	a   atomic.Int64
	b   atomic.Int64
	c   atomic.Int64
}

// slotBusy marks a slot's seq word while a writer stores its payload.
const slotBusy = 1 << 63

// Journal is a fixed-size lock-free ring of typed engine events. Writers
// claim a global sequence number and publish into slot seq mod size.
// A writer owns the slot exclusively while it stores: it swaps the
// slot's sequence word from the published number to its own number
// with slotBusy set, stores the payload, and stores its plain sequence
// number last. A writer that finds the slot busy waits for the owner;
// one that finds a later sequence number there — a writer a whole ring
// ahead of it published first — drops its event, since the ring keeps
// the most recent events. Readers validate the sequence word around the
// payload read and drop entries that changed under them. A slot's
// sequence numbers only grow, so an unchanged word means an untouched
// payload, and a drain never reports a torn event, even when writers
// lap the ring.
//
// A nil *Journal is valid and inert: Record on nil is a no-op, Events on
// nil returns nil. The engine stores nil when journaling is disabled so
// hot paths pay a single pointer test.
type Journal struct {
	now   func() int64
	mask  uint64
	next  atomic.Uint64
	slots []journalSlot
}

// NewJournal returns a journal with capacity rounded up to a power of
// two (minimum 64). A nil or zero-argument clock defaults to wall time.
// size <= 0 returns nil — the inert, disabled journal.
func NewJournal(size int, now func() int64) *Journal {
	if size <= 0 {
		return nil
	}
	cap := 64
	for cap < size {
		cap <<= 1
	}
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	return &Journal{now: now, mask: uint64(cap - 1), slots: make([]journalSlot, cap)}
}

// Cap returns the ring capacity (0 for a nil journal).
func (j *Journal) Cap() int {
	if j == nil {
		return 0
	}
	return len(j.slots)
}

// Record appends one event. Allocation-free and a no-op on a nil
// journal. It waits only behind another writer of the same slot, which
// takes the whole ring lapping within that writer's store.
func (j *Journal) Record(typ EventType, a, b, c int64) {
	if j == nil {
		return
	}
	j.store(j.next.Add(1), typ, a, b, c)
}

// store publishes the event with sequence number seq into its slot.
func (j *Journal) store(seq uint64, typ EventType, a, b, c int64) {
	s := &j.slots[(seq-1)&j.mask]
	for {
		cur := s.seq.Load()
		if cur&slotBusy != 0 {
			runtime.Gosched()
			continue
		}
		if cur > seq {
			return
		}
		if s.seq.CompareAndSwap(cur, seq|slotBusy) {
			break
		}
	}
	s.t.Store(j.now())
	s.typ.Store(uint32(typ))
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	s.seq.Store(seq)
}

// Events drains a consistent copy of the ring, sorted by sequence
// number. Entries mid-write (or overwritten during the read) are
// skipped. Nil journal drains nil.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	out := make([]Event, 0, len(j.slots))
	for i := range j.slots {
		s := &j.slots[i]
		s1 := s.seq.Load()
		if s1 == 0 || s1&slotBusy != 0 {
			continue
		}
		ev := Event{
			Seq:  s1,
			Time: s.t.Load(),
			Type: EventType(s.typ.Load()),
			A:    s.a.Load(),
			B:    s.b.Load(),
			C:    s.c.Load(),
		}
		if s.seq.Load() != s1 {
			continue
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}
