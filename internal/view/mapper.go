package view

import (
	"errors"
	"sync"

	"github.com/asv-db/asv/internal/vmsim"
)

// Request asks the mapping thread to rewire Pages virtual pages starting
// at Addr to file pages [FilePage, FilePage+Pages). Done is invoked with
// the mmap result after the call completes.
type Request struct {
	AS       *vmsim.AddressSpace
	Addr     vmsim.Addr
	File     *vmsim.File
	FilePage int
	Pages    int
	Done     func(error)
}

// Mapper is the separate mapping thread of §2.3: "Instead of letting the
// scanning thread map each qualifying page, it only inserts a request to
// map the physical page into a concurrent queue ... A separate mapping
// thread constantly polls this queue and performs the actual mmap() calls."
// The queue is a buffered channel.
//
// One Mapper serves arbitrarily many view builders; requests carry their
// own completion callbacks, and each builder waits only for its own.
type Mapper struct {
	// mu guards closed and the close of reqs: Enqueue sends holding it
	// shared, Stop closes holding it exclusively, so no send can hit a
	// closed channel. A sender blocked on a full channel still finishes,
	// because the mapping goroutine keeps draining until the close and
	// never takes mu — which is why Done callbacks, run on that
	// goroutine, must not call Enqueue.
	mu     sync.RWMutex
	closed bool
	reqs   chan Request
	done   chan struct{}
}

// mapperQueueCap is the capacity of the channel feeding the mapping
// thread: enough for a scan to run far ahead of the mmap calls, while
// bounding the requests queued behind a slow mapping thread (Enqueue
// blocks once it is full).
const mapperQueueCap = 1024

// errMapperStopped is returned by Enqueue after Stop.
var errMapperStopped = errors.New("view: mapping thread stopped")

// NewMapper starts a mapping thread.
func NewMapper() *Mapper {
	m := &Mapper{
		reqs: make(chan Request, mapperQueueCap),
		done: make(chan struct{}),
	}
	go m.loop()
	return m
}

func (m *Mapper) loop() {
	defer close(m.done)
	for r := range m.reqs {
		err := r.AS.MmapFileFixed(r.Addr, r.File, r.FilePage, r.Pages)
		if r.Done != nil {
			r.Done(err)
		}
	}
}

// Enqueue submits a request, blocking while the queue is full. It returns
// an error after Stop; an accepted request's Done runs before Stop returns.
func (m *Mapper) Enqueue(r Request) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return errMapperStopped
	}
	m.reqs <- r
	return nil
}

// Stop drains outstanding requests and terminates the mapping thread.
// Safe to call more than once.
func (m *Mapper) Stop() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.reqs)
	}
	m.mu.Unlock()
	<-m.done
}

// firstErr retains the first error reported to it; safe for concurrent use.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
