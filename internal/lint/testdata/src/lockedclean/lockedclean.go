// Package lockedclean exercises the locked analyzer's legal idioms:
// acquire-then-call, deferred release, mode propagation through an
// annotated caller, a shared-mode call under the shared mode, and
// blocking work done outside the lock.
package lockedclean

import "time"

type lock struct{ readers, held bool }

//asv:acquires=shared
func (l *lock) RLock() { l.readers = true }

//asv:releases=shared
func (l *lock) RUnlock() { l.readers = false }

//asv:acquires=exclusive
func (l *lock) Lock() { l.held = true }

//asv:releases=exclusive
func (l *lock) Unlock() { l.held = false }

// publishLocked must run under the exclusive mode.
//
//asv:locked=exclusive
func (l *lock) publishLocked() {}

// appendLocked must run under the shared mode.
//
//asv:locked=shared
func (l *lock) appendLocked() {}

// maintainLocked holds exclusive by contract, so it may call the other
// helper without acquiring anything itself.
//
//asv:locked=exclusive
func (l *lock) maintainLocked() { l.publishLocked() }

func direct(l *lock) {
	l.Lock()
	defer l.Unlock()
	l.publishLocked()
	l.maintainLocked()
}

func shared(l *lock) {
	l.RLock()
	defer l.RUnlock()
	l.appendLocked()
}

func outside(l *lock, ch chan int) {
	l.Lock()
	l.publishLocked()
	l.Unlock()
	<-ch
	time.Sleep(time.Millisecond)
}

// earlyReturn is the early-exit idiom: the unlock inside the
// terminating branch must not leak onto the fall-through path, where
// the lock is still held.
func earlyReturn(l *lock, done bool) {
	l.Lock()
	if done {
		l.Unlock()
		return
	}
	l.publishLocked()
	l.Unlock()
}
