package grt

import (
	"errors"
	"sync"

	"dfdeques/internal/rtrace"
)

var errUnlockNotHeld = errors.New("grt: Unlock of a mutex the thread does not hold")

// Mutex is a blocking lock mediated by the thread scheduler, like Pthread
// mutexes in the paper's library (§5): a thread that fails to acquire
// suspends and its processor picks other work; an unlock hands the mutex
// to the longest-waiting thread and re-publishes it to the scheduler.
//
// Programs using Mutex leave the pure nested-parallel model, so the
// paper's space bound no longer applies (§3.1) — but the scheduler still
// executes them correctly, which is what the Fig. 17 experiment exercises.
//
// The holder/waiter state carries its own lock, so contended Locks are
// arbitrated without any global serialization.
//
// The zero value is an unlocked mutex. Lock and Unlock must be called with
// the calling thread's *T.
type Mutex struct {
	mu      sync.Mutex
	holder  *T
	waiters []*T
}

// acquire attempts to take m for t on worker w, reporting success; on
// failure t is queued as a waiter and its worker must pick other work.
// Called by workers, not threads. The block event is recorded under m.mu
// so it is sequenced before the releasing worker's wake of t. The waiter
// is also registered with its job for the cancel sweep — under m.mu, so
// registration and parking are atomic against the sweep: if the job was
// poisoned first, the park is rolled back and t runs on to its death at
// the next resume instead of waiting beyond the sweep's reach.
func (m *Mutex) acquire(w int, t *T) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.holder == nil {
		m.holder = t
		return true
	}
	m.waiters = append(m.waiters, t)
	if !t.job.registerBlocked(t, m) {
		m.waiters = m.waiters[:len(m.waiters)-1]
		return true // poisoned: keep "running"; the next resume kills t
	}
	t.rt.trace(w, rtrace.EvBlock, t.tid, rtrace.BlockLock, 0)
	return false
}

// release drops t's hold on m and hands the lock to the longest waiter,
// returning that waiter for re-publication to the scheduler (nil if none).
// Removing the waiter from the list under m.mu is what arbitrates against
// the cancel sweep: whichever side removes it owns its republication.
func (m *Mutex) release(t *T) (*T, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.holder != t {
		return nil, errUnlockNotHeld
	}
	m.holder = nil
	if len(m.waiters) == 0 {
		return nil, nil
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.holder = next // hand the lock to the woken thread
	next.job.unregisterBlocked(next)
	return next, nil
}

// cancelWait implements blocker: the job cancel sweep removes t from the
// waiter list so it can be republished to die. False means a concurrent
// release already claimed (and is waking) t.
func (m *Mutex) cancelWait(t *T) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, wt := range m.waiters {
		if wt == t {
			m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// tryAcquire takes m for t iff it is free — the inline fast path. It
// never queues a waiter: queuing would publish the running frame to other
// workers while the thread is still executing, which the promotion
// protocol forbids; the contended case parks and the worker queues the
// frame instead.
func (m *Mutex) tryAcquire(t *T) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.holder == nil {
		m.holder = t
		return true
	}
	return false
}

// Lock acquires m, suspending t until it is available.
func (m *Mutex) Lock(t *T) {
	t.checkPoison()
	if !m.tryAcquire(t) {
		// Contended: park; the worker re-runs the full acquire (the holder
		// may have released in between) and queues the frame on failure.
		// Resumption implies the worker either acquired the lock then or
		// a releasing thread handed it to us.
		t.park(event{kind: evLock, mu: m})
	}
}

// Unlock releases m, waking the longest-waiting thread if any. The
// release and wake run inline — they publish the *waiter's* frame, never
// the running one, so no yield is needed.
func (m *Mutex) Unlock(t *T) {
	t.checkPoison()
	next, err := m.release(t)
	if err != nil {
		t.job.fail(err)
		return
	}
	if next != nil {
		t.rt.pol.Wake(t.w, next)
		t.rt.wakeIdlers()
	}
}
