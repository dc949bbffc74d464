package grt

import (
	"context"
	"sync"
	"sync/atomic"

	"dfdeques/internal/rtrace"
)

// Job is one root computation submitted to a persistent Runtime: its own
// fork-join tree with its own accounting, failure state, and cancellation
// flag. Many jobs can be in flight on the same warm worker pool; each is
// isolated — a panic or cancellation kills only its own thread tree.
type Job struct {
	rt  *Runtime
	id  int64
	ctx context.Context

	// budget, when non-nil, is the shared memory-accounting group the
	// job's heap traffic also charges (SubmitOpts.Budget); exceeding its
	// limit cancels the job with ErrBudget, and finishJob settles the
	// job's final balance back into it.
	budget *Budget

	// poisoned is the cancellation flag: set once (by context
	// cancellation, deadline, shutdown abort, panic isolation, or
	// deadlock recovery), read by workers with one atomic load at every
	// scheduling event. A poisoned job's threads stop having effects
	// immediately and die — their goroutines unwound by a sentinel panic
	// — at their next resume.
	poisoned atomic.Bool

	// mu guards err and blocked. It is a leaf under every Mutex/Future
	// lock (registration runs as m.mu → j.mu); the cancel sweep never
	// holds it while taking a synchronization object's lock.
	mu      sync.Mutex
	err     error
	blocked map[*T]blocker // lock/future-parked threads, for the cancel sweep

	// Per-job accounting (the runtime keeps only global counters needed
	// for scheduling itself).
	live, maxLive, tot atomic.Int64
	dummies, preempts  atomic.Int64
	heapLive, heapHW   atomic.Int64

	done chan struct{} // closed when the job's last thread completes
}

// JobStats reports what one job did. Scheduler-wide counters (steals,
// lock operations, deque high-water) live in Stats — they belong to the
// runtime, which many jobs share.
type JobStats struct {
	TotalThreads   int64
	MaxLiveThreads int64
	DummyThreads   int64
	Preemptions    int64 // quota preemptions
	HeapHW         int64 // high-water of Alloc−Free bytes
	HeapLive       int64 // final Alloc−Free balance (0 when frees match)
}

// blocker is a synchronization object a thread can park on (Mutex,
// Future). cancelWait removes t from the object's waiter list, reporting
// false if a concurrent wake already claimed it — whoever removes the
// thread from the waiter list owns its republication.
type blocker interface {
	cancelWait(t *T) bool
}

// Wait blocks until the job completes or its submission context is
// canceled, and returns the job's stats plus its first error: nil on
// success, the panic/violation error on failure, context.Canceled or
// DeadlineExceeded on cancellation, ErrShutdown on an aborted shutdown.
// When the context fires first, Wait returns its error promptly — the
// job's threads are already poisoned and drain in the background (each
// dies at its next scheduling point); Shutdown waits for that drain.
func (j *Job) Wait() (JobStats, error) {
	select {
	case <-j.done:
	case <-j.ctx.Done():
		// The context watcher poisons the job; don't wait for the drain.
		select {
		case <-j.done:
		default:
			j.cancel(j.ctx.Err())
			return j.Stats(), j.ctx.Err()
		}
	}
	return j.Stats(), j.Err()
}

// Done returns a channel closed when the job's last thread completes.
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the job's first recorded error (nil while running cleanly).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Stats returns the job's accounting; stable after Done, a live snapshot
// before.
func (j *Job) Stats() JobStats {
	return JobStats{
		TotalThreads:   j.tot.Load(),
		MaxLiveThreads: j.maxLive.Load(),
		DummyThreads:   j.dummies.Load(),
		Preemptions:    j.preempts.Load(),
		HeapHW:         j.heapHW.Load(),
		HeapLive:       j.heapLive.Load(),
	}
}

// fail records the job's first error.
func (j *Job) fail(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

// charge adjusts the job's heap accounting, and its budget's when it has
// one, canceling the job with ErrBudget when the charge overruns the
// budget; the budget counts each killed job once (cancel reports only
// the call that poisoned it). The accounting is lock-free; the kill takes
// extMu, so the caller must not hold it.
func (j *Job) charge(n int64) {
	v := j.heapLive.Add(n)
	if n > 0 {
		atomicMax(&j.heapHW, v)
	}
	if j.budget != nil && j.budget.charge(n) && j.cancel(ErrBudget) {
		j.budget.kills.Add(1)
	}
}

// registerBlocked records t as parked on b for the cancel sweep. Called
// with b's lock held (the m.mu → j.mu order), right after t joined b's
// waiter list. It refuses (false) if the job was poisoned concurrently —
// the caller must then remove t from the waiter list and let it run to
// its death instead of parking it beyond the sweep's reach.
func (j *Job) registerBlocked(t *T, b blocker) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.poisoned.Load() {
		return false
	}
	if j.blocked == nil {
		j.blocked = make(map[*T]blocker)
	}
	j.blocked[t] = b
	return true
}

// unregisterBlocked drops t's sweep registration after a normal wake
// (lock hand-off, future write). Also called with the object's lock held.
func (j *Job) unregisterBlocked(t *T) {
	j.mu.Lock()
	delete(j.blocked, t)
	j.mu.Unlock()
}

// Cancel poisons the job with context.Canceled, exactly as if its
// submission context had fired: every thread dies at its next scheduling
// point and Wait returns context.Canceled once the tree drains. It is
// the API-level kill switch (the serving layer's DELETE /v1/jobs/{id});
// idempotent, reporting whether this call was the one that canceled the
// job (false if it already finished or was already poisoned).
func (j *Job) Cancel() bool {
	select {
	case <-j.done:
		return false
	default:
	}
	return j.cancel(context.Canceled)
}

// cancel poisons the job with the given reason and unblocks everything
// that would otherwise keep Wait from returning: threads parked on a
// Mutex or Future are removed from their waiter lists and republished to
// the scheduler so a worker can retire them (they die at dispatch);
// running and queued threads see the flag at their next scheduling event.
// Join-parked threads need no sweep — their children all die, and each
// death wakes its waiter through the normal join protocol. Idempotent;
// reports whether this call was the one that poisoned the job.
func (j *Job) cancel(reason error) bool {
	// The cancel is recorded before the poison is published, both under
	// extMu (which also makes the check-and-set one step against other
	// cancels): a worker that sees the poison can kill the job's last
	// thread and record the job's end at once, and the replay must meet
	// the cancel first.
	rt := j.rt
	rt.extMu.Lock()
	if j.poisoned.Load() {
		rt.extMu.Unlock()
		return false
	}
	rt.trace(-1, rtrace.EvJobCancel, j.id, 0, 0)
	j.poisoned.Store(true)
	j.fail(reason)

	// Snapshot the parked threads under j.mu, then republish outside it:
	// cancelWait takes the synchronization object's lock, which is
	// ordered *before* j.mu.
	j.mu.Lock()
	swept := make([]*T, 0, len(j.blocked))
	objs := make([]blocker, 0, len(j.blocked))
	for t, b := range j.blocked {
		swept = append(swept, t)
		objs = append(objs, b)
	}
	j.blocked = nil
	j.mu.Unlock()

	for i, t := range swept {
		if !objs[i].cancelWait(t) {
			// A concurrent wake already removed t from the waiter list
			// and owns its republication.
			continue
		}
		rt.pol.Inject(t)
	}
	rt.extMu.Unlock()
	rt.forceWake()
	return true
}
