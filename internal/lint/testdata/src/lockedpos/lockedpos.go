// Package lockedpos seeds violations for the locked analyzer: calls to
// mode-requiring functions without the mode, blocking operations under
// the exclusive mode, and nested acquisition.
package lockedpos

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

// flushLocked relies on the naming convention alone: callers must hold
// some recognized lock.
func flushLocked() {}

func bad(l *lock) {
	l.publishLocked() // want `\[locked\] call to publishLocked requires lock mode "exclusive", but bad holds no lock`
}

func sharedOnly(l *lock) {
	l.RLock()
	l.publishLocked() // want `\[locked\] call to publishLocked requires lock mode "exclusive", but sharedOnly holds shared`
	l.RUnlock()
}

func good(l *lock) {
	l.Lock()
	l.publishLocked()
	l.Unlock()
}

func callsNaked() {
	flushLocked() // want `\[locked\] call to flushLocked requires lock mode "any", but callsNaked holds no lock`
}

func blocky(l *lock, ch chan int) {
	l.Lock()
	defer l.Unlock()
	<-ch                         // want `\[locked\] channel receive while the exclusive mode is held`
	time.Sleep(time.Millisecond) // want `\[locked\] calling Sleep while the exclusive mode is held`
}

func nested(l *lock) {
	l.Lock()
	l.Lock() // want `\[locked\] acquiring the exclusive mode while the lock is already held`
	l.Unlock()
	l.Unlock()
}

func sharedUnderExclusive(l *lock) {
	l.Lock()
	l.RLock() // want `\[locked\] acquiring the shared mode while the lock is already held`
	l.RUnlock()
	l.Unlock()
}
