package grt

import (
	"errors"
	"runtime"
	"time"

	"dfdeques/internal/rtrace"
)

var errDeadlock = errors.New("grt: deadlock — all workers idle with live threads blocked")

// This file is the runtime's one worker loop — the Figure 5 scheduling
// loop, driving whatever policy.Policy Config selected. The runtime owns
// parking, heap accounting, priorities and the join protocol; every
// ready-thread decision is the policy's. Non-blocking scheduling events
// (fork, alloc, free, unlock, future set) run inline on the thread as
// agent of its worker; the loop below handles the blocking ones.
//
// Each event takes only the locks the policy internally needs: the R
// spine on a steal or a membership change, the queue mutex on a queue
// operation, nothing at all for fork, own-deque pops, or alloc/free —
// deque item operations are lock-free end to end.
//
// Locking map (acquisition order left to right; every lock is a leaf to
// everything on its right):
//
//	rt.extMu  →  policy internals  →  rt.prioMu (Submit, the cancel sweep)
//	rt.extMu  →  Mutex.mu / Future.mu  →  Job.mu (the cancel sweep; blocking)
//	rt.extMu  →  rt.mu (confirmDeadlock), rt.jobsMu (Submit)
//	policy: R spine → rt.prioMu (see core.SharedPool; deques carry no lock)
//
// T.stateMu, the join protocol's lock, is a leaf.
//
// rt.mu is only ever held to park or wake idle workers, never while
// consulting the policy.

// worker is one virtual processor: it acquires a thread, drives it from
// blocking event to blocking event, and consults the policy at each.
func (rt *Runtime) worker(w int) {
	var curr *T
	for {
		if curr == nil {
			curr = rt.acquire(w)
			if curr == nil {
				return // runtime shut down
			}
		}
		ev := rt.step(w, curr)
		// The event may come from a frame running inline deeper in curr's
		// chain — a child claimed by an inline join that then blocked. The
		// yielding frame is the one every handler below must act on (and
		// the one to redispatch to resume the chain).
		curr = ev.self

		// Cancellation check: one atomic load per blocking event, the
		// lifecycle's entire cost on this path. A poisoned thread's event
		// has no effects — no waiter queued, no preemption — and the
		// thread dies at its next resume (park panics with the poison
		// sentinel), which yields the evDone handled normally below.
		// Threads already in deques or queues drain the same way:
		// dispatch, poison check, death — so the ready structures purge
		// themselves through ordinary pops and steals, never violating
		// the Lemma 3.1 order.
		if ev.kind != evDone && curr.job.poisoned.Load() {
			continue
		}

		// The branches that publish work a parked worker could run call
		// wakeIdlers after the policy call, so the policy's ready state is
		// raised before the idlers check (the park protocol's ordering
		// requirement — see acquire).
		switch ev.kind {
		case evJoin:
			if ev.child.registerWaiter(w, curr) {
				// Lost race resolved: the child finished before we could
				// register; keep running the parent.
				break
			}
			curr = rt.next(w)

		case evLock:
			if ev.mu.acquire(w, curr) {
				break // lock acquired; keep running
			}
			curr = rt.next(w)

		case evFutureGet:
			if ev.fut.getOrWait(w, curr) {
				break // value available; keep running
			}
			curr = rt.next(w)

		case evPreempt:
			// The thread found the quota exhausted inline and parked;
			// republish it (§3.3). Its own Alloc loop retries the
			// allocation when it is next dispatched with a fresh quota.
			curr.job.preempts.Add(1)
			rt.trace(w, rtrace.EvQuotaExhaust, curr.tid, ev.n, 0)
			rt.pol.Preempt(w, curr)
			rt.wakeIdlers()
			curr = nil

		case evDone:
			dying := curr
			rt.trace(w, rtrace.EvComplete, dying.tid, 0, 0)
			rt.prioDelete(dying)
			// Everything this handler needs from the dying frame is read
			// before finish: the moment finish publishes done, a joining
			// parent on another worker may observe it, release the frame
			// to the pool, and a third worker may already be reusing it.
			j := dying.job
			isRoot := dying.root
			woke := dying.finish()
			rt.live.Add(-1)
			if isRoot {
				// Nothing ever joins a job root, so the terminating worker
				// is its last referent and recycles the frame itself.
				releaseT(dying)
			}
			if j.live.Add(-1) == 0 {
				rt.finishJob(w, j)
			}
			next, ok := rt.pol.Terminate(w, woke, woke != nil)
			if ok {
				rt.trace(w, rtrace.EvDispatch, next.tid, rtrace.SrcTerminate, 0)
				curr = next
			} else {
				// The policy may have republished work (the dummy-thread
				// give-up leaves the deque stealable); wake conservatively.
				curr = nil
				rt.wakeIdlers()
			}
		}
	}
}

// next picks the worker's next thread after its current one suspended or
// blocked; nil sends the worker to acquire.
func (rt *Runtime) next(w int) *T {
	if x, ok := rt.pol.Next(w); ok {
		rt.trace(w, rtrace.EvDispatch, x.tid, rtrace.SrcNext, 0)
		return x
	}
	return nil
}

// acquire blocks until it can hand the worker a thread (a steal for the
// deque policies; a queue take otherwise) or the runtime shuts down
// (nil). Work polling is lock-free (the policies' atomic ready counters);
// rt.mu and the cond are only touched to park when there is provably
// nothing to do. In a persistent runtime an empty pool is the normal idle
// state — workers park here between jobs and Submit's wakeIdlers revives
// them.
//
// An acquiring worker counts itself in rt.spinning for the whole hunt.
// Publishers skip the wake-up entirely while a spinner exists (see
// wakeIdlers); in exchange, a spinner that decides to park decrements
// the counter *before* its final has-work re-check, and one that
// succeeds wakes a successor if work remains — so published work always
// has an awake worker responsible for it.
//
// Failed attempts back off exponentially: a brief hot spin (the common
// transient — the victim drained between the size hint and the lock),
// then Gosched, then parking even though work is nominally pending. The
// last step is what stops a persistently unlucky thief from burning a
// core (or, on few cores, stealing cycles from the worker that holds
// the work), and it is safe under one rule: the last unparked worker
// never abandons pending work. Everyone else may park with work in the
// pool, because that one awake worker either takes the work or keeps
// hunting — and every worker re-derives this rule under rt.mu, so two
// late parkers cannot both slip out. A worker that was woken and parks
// again without having acquired anything counts the wake as futile
// (rt.futileWakes), which is what lets wakeIdlers throttle wake storms
// that find nothing.
func (rt *Runtime) acquire(w int) *T {
	var start time.Time
	if rt.cfg.MeasureContention {
		start = time.Now()
	}
	rt.trace(w, rtrace.EvIdle, 0, 0, 0)
	rt.spinning.Add(1)
	spins := 0
	woken := false
	for {
		if rt.stopped.Load() {
			rt.spinning.Add(-1)
			return nil
		}
		x, ok := rt.pol.Acquire(w)
		if ok {
			rt.spinning.Add(-1)
			if woken {
				// The wake produced work: wakes are useful again.
				rt.futileWakes.Store(0)
			}
			if rt.pol.HasWork() {
				// Hand off spinner duty: more work is published and this
				// worker is about to get busy, so wake a successor.
				rt.wakeIdlers()
			}
			if !start.IsZero() {
				rt.stealWaitNs.Add(time.Since(start).Nanoseconds())
			}
			rt.trace(w, rtrace.EvDispatch, x.tid, rtrace.SrcAcquire, 0)
			return x
		}
		hadWork := rt.pol.HasWork()
		if hadWork {
			spins++
			if spins < 8 {
				continue
			}
			if spins < 64 {
				runtime.Gosched()
				continue
			}
			// Long unlucky streak: fall through and try to park despite
			// the pending work (refused below if this is the last unparked
			// worker).
		}
		// Park. The idlers counter is raised before the re-check of the
		// ready state, and publishers raise the ready state before
		// checking idlers (both are sequentially consistent atomics), so
		// either we see the fresh work here or the publisher sees us and
		// wakes — a lost wake-up would require both loads to happen
		// before both stores. The spinning decrement precedes the re-check
		// for the same reason: a publisher that skipped the wake because
		// it saw this spinner must have published before the decrement,
		// so the re-check sees its work.
		rt.mu.Lock()
		rt.idleWaiters++
		rt.idlers.Add(1)
		rt.spinning.Add(-1)
		if rt.stopped.Load() {
			rt.idleWaiters--
			rt.idlers.Add(-1)
			rt.mu.Unlock()
			return nil
		}
		if hadWork {
			// Backoff park: allowed only while some other worker stays
			// unparked to be responsible for the pending work.
			if rt.idleWaiters == rt.cfg.Workers {
				rt.idleWaiters--
				rt.idlers.Add(-1)
				rt.spinning.Add(1)
				rt.mu.Unlock()
				time.Sleep(time.Duration(1<<min(spins-64, 9)) * time.Microsecond)
				continue
			}
		} else if rt.pol.HasWork() {
			// Fresh work appeared between the poll and the park: retry.
			rt.idleWaiters--
			rt.idlers.Add(-1)
			rt.spinning.Add(1)
			rt.mu.Unlock()
			continue
		} else if rt.idleWaiters == rt.cfg.Workers && rt.live.Load() > 0 {
			// Deadlock candidate: every worker is parked, nothing is
			// published, and threads remain live. Confirm before acting.
			rt.idleWaiters--
			rt.idlers.Add(-1)
			rt.mu.Unlock()
			if rt.confirmDeadlock() {
				return nil
			}
			rt.spinning.Add(1)
			continue
		}
		if woken {
			// Woken for nothing: this worker parked, was signaled, hunted,
			// and is parking again empty-handed.
			rt.futileWakes.Add(1)
		}
		rt.cond.Wait()
		woken = true
		rt.idleWaiters--
		rt.idlers.Add(-1)
		rt.spinning.Add(1)
		rt.mu.Unlock()
		spins = 0
	}
}

// confirmDeadlock re-checks a deadlock candidate under extMu — Submit
// publishes a job's live count and its root atomically under the same
// lock, so a Submit racing the candidate either already published work
// (the re-check sees it: no deadlock) or has not started (its job is not
// in the live count). On confirmation every in-flight job is canceled
// with errDeadlock: the poison sweep republishes the lock/future-blocked
// threads, workers retire them, and the jobs drain — the runtime survives
// a deadlocked program (possible only outside the nested-parallel model,
// e.g. lock cycles or a Future nobody sets) with no abandoned goroutines.
// Returns true when this worker should exit (shutdown), false to retry.
func (rt *Runtime) confirmDeadlock() bool {
	rt.extMu.Lock()
	rt.mu.Lock()
	confirmed := rt.idleWaiters == rt.cfg.Workers-1 && !rt.pol.HasWork() &&
		rt.live.Load() > 0 && !rt.stopped.Load()
	rt.mu.Unlock()
	rt.extMu.Unlock()
	if !confirmed {
		return rt.stopped.Load()
	}
	rt.jobsMu.Lock()
	jobs := make([]*Job, 0, len(rt.jobs))
	for _, j := range rt.jobs {
		jobs = append(jobs, j)
	}
	rt.jobsMu.Unlock()
	for _, j := range jobs {
		j.cancel(errDeadlock)
	}
	// The sweep republished the blocked threads; go back to the acquire
	// loop and help retire them.
	return false
}

// futileWakeLimit is the number of consecutive futile wakes (a woken
// worker re-parked empty-handed) after which wakeIdlers throttles to one
// wake per wakeEvery publications. Any woken worker that does acquire
// resets the count.
const (
	futileWakeLimit = 3
	wakeEvery       = 64
)

// wakeIdlers wakes one parked worker after new work was published. The
// atomic pre-checks keep the publish path lock-free in the common cases:
// every worker busy (no idlers), or a worker already hunting for work (a
// spinner). A single wake per publication is enough because an acquiring
// worker that succeeds while more work remains wakes a successor itself
// (the handoff in acquire), so a burst of publications unparks workers
// one by one instead of stampeding every sleeper at every fork.
//
// When recent wakes have all been futile — the publisher consumes its
// own work before any thief can reach it, the pattern of a serial
// fork-join chain — all but every wakeEvery-th wake is skipped. The
// skipped wakes cannot strand work: a publisher is by definition awake,
// and the last awake worker never parks while work is pending (see
// acquire), so pending work always has an unparked worker hunting it;
// the periodic forced wake only bounds how long the parked majority
// stays out of the game if the workload turns parallel again.
func (rt *Runtime) wakeIdlers() {
	if rt.idlers.Load() == 0 || rt.spinning.Load() > 0 {
		return
	}
	if rt.futileWakes.Load() >= futileWakeLimit && rt.wakeSkips.Add(1)%wakeEvery != 0 {
		return
	}
	rt.mu.Lock()
	rt.cond.Signal()
	rt.mu.Unlock()
}

// forceWake bypasses the futile-wake throttle — used where a wake is
// load-bearing rather than advisory: a new job's root (nothing else will
// republish if it is skipped) and the cancel sweep's republications.
func (rt *Runtime) forceWake() {
	rt.futileWakes.Store(0)
	if rt.idlers.Load() == 0 {
		return
	}
	rt.mu.Lock()
	rt.cond.Broadcast()
	rt.mu.Unlock()
}
