package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// CountedLock is a scheduler lock that counts its exclusive acquisitions
// and, once Time is called, their hold time: the R spine of SharedPool
// and the runtime policies' queue and inject mutexes, reported as the
// runtime's SchedLockOps and SchedLockNs. Shared (read) holds are neither
// counted nor timed — they never serialize one scheduler operation
// against another. The zero value is an unlocked, untimed lock.
type CountedLock struct {
	sync.RWMutex
	timed   bool      // set by Time before the lock is shared
	since   time.Time // start of the current exclusive hold (timed only)
	ops, ns atomic.Int64
}

// Lock acquires the lock exclusively and counts the acquisition.
func (l *CountedLock) Lock() {
	l.RWMutex.Lock()
	l.ops.Add(1)
	if l.timed {
		l.since = time.Now()
	}
}

// Unlock releases an exclusive hold, adding its duration when timed.
func (l *CountedLock) Unlock() {
	if l.timed {
		l.ns.Add(time.Since(l.since).Nanoseconds())
	}
	l.RWMutex.Unlock()
}

// Time switches hold timing on; call it before the lock is shared.
func (l *CountedLock) Time() { l.timed = true }

// Stats returns the exclusive acquisitions and their total hold time in
// nanoseconds (0 unless timed).
func (l *CountedLock) Stats() (ops, ns int64) { return l.ops.Load(), l.ns.Load() }
