package policy

import (
	"dfdeques/internal/core"
	"dfdeques/internal/rtrace"
)

// DFD is algorithm DFDeques(K) (§3.3) as a runtime policy: the globally
// ordered deque list R (core.SharedPool) with leftmost-p bottom-steals,
// plus the per-steal memory quota and the dummy-termination give-up rule.
// K = 0 is DFDeques(∞), which behaves like WS up to victim selection (one
// shared ordered list instead of per-worker deques).
type DFD[T comparable] struct {
	pool   *core.SharedPool[T]
	quota  *Quota
	k      int64
	giveUp []bool // set by Dummy, consumed by Terminate; [w] touched only by worker w
}

// NewDFD builds a DFDeques(K) policy for p workers. less is the 1DF
// priority order (it may take the caller's priority lock); seed derives
// each worker's private victim-selection stream (core.WorkerSeed).
func NewDFD[T comparable](p int, k int64, less func(a, b T) bool, seed int64) *DFD[T] {
	return &DFD[T]{
		pool:   core.NewSharedPool(p, less, seed),
		quota:  NewQuota(p),
		k:      k,
		giveUp: make([]bool, p),
	}
}

// Instrument attaches a trace probe to the pool (see internal/rtrace).
// Call before the policy is shared.
func (d *DFD[T]) Instrument(p rtrace.Probe, tid func(T) int64) {
	d.pool.Instrument(p, tid)
}

// MeasureLocks times the R spine's exclusive holds (Stats.LockNs).
func (d *DFD[T]) MeasureLocks() { d.pool.MeasureLocks() }

// Name implements Policy.
func (d *DFD[T]) Name() string { return "DFDeques" }

// Threshold implements Policy.
func (d *DFD[T]) Threshold() int64 { return d.k }

// Seed implements Policy.
func (d *DFD[T]) Seed(t T) { d.pool.Seed(t) }

// Inject implements Policy: the thread gets a new deque at its priority
// position in R (the woken-thread insertion path), so mid-run injection —
// a submitted job root, a canceled job's republished thread — preserves
// the Lemma 3.1 left-to-right order.
func (d *DFD[T]) Inject(t T) { d.pool.PushWoken(-1, t) }

// Fork implements Policy: the child goes on top of w's own deque while
// the parent keeps running. The top is the deepest thread but the
// lowest-priority one in the deque (the most recently forked child comes
// last in the 1DF order among the deque's threads); the bottom, which a
// thief takes, is the oldest and coarsest child — the highest-priority
// thread in the deque, the §3.3 steal. Quota is untouched: it spans
// steals, not forks.
func (d *DFD[T]) Fork(w int, child T) { d.pool.PushOwn(w, child) }

// JoinPop implements Policy: claim child for an inline join iff it is
// still the top of w's own deque (see core.SharedPool.PopOwnIf) — i.e. no
// thief stole it and no woken thread was pushed above it.
func (d *DFD[T]) JoinPop(w int, child T) bool { return d.pool.PopOwnIf(w, child) }

// Charge implements Policy.
func (d *DFD[T]) Charge(w int, n int64) bool { return d.quota.Charge(w, n, d.k) }

// Credit implements Policy.
func (d *DFD[T]) Credit(w int, n int64) { d.quota.Credit(w, n, d.k) }

// Preempt implements Policy: the preempted thread goes back on top of w's
// deque, which is then given up — left in R, unowned and stealable — and
// w steals with a fresh quota (§3.3, "memory quota exhausted").
func (d *DFD[T]) Preempt(w int, t T) {
	d.pool.PushOwn(w, t)
	d.pool.GiveUp(w)
}

// Wake implements Policy.
func (d *DFD[T]) Wake(w int, t T) { d.pool.PushWoken(w, t) }

// Next implements Policy.
func (d *DFD[T]) Next(w int) (T, bool) { return d.pool.PopOwn(w) }

// Terminate implements Policy. After a dummy thread the worker must give
// up its deque and steal (§3.3); a woken parent is pushed first so it
// stays stealable at its priority position. Otherwise the woken parent is
// handed off directly (its deque is empty here for nested-parallel
// programs — Lemma 3.1), or the deque top runs next.
func (d *DFD[T]) Terminate(w int, woke T, hasWoke bool) (T, bool) {
	if d.giveUp[w] {
		d.giveUp[w] = false
		if hasWoke {
			d.pool.PushOwn(w, woke)
		}
		d.pool.GiveUp(w)
		var zero T
		return zero, false
	}
	if hasWoke {
		return woke, true
	}
	return d.pool.PopOwn(w)
}

// Dummy implements Policy.
func (d *DFD[T]) Dummy(w int) { d.giveUp[w] = true }

// Acquire implements Policy: one steal attempt (random deque among the
// leftmost p, pop its bottom); the quota refills on success.
func (d *DFD[T]) Acquire(w int) (T, bool) {
	x, ok := d.pool.Steal(w)
	if ok {
		d.quota.Reset(w, d.k)
	}
	return x, ok
}

// HasWork implements Policy.
func (d *DFD[T]) HasWork() bool { return d.pool.HasWork() }

// Stats implements Policy.
func (d *DFD[T]) Stats() Stats {
	s, f, l := d.pool.Stats()
	ops, ns := d.pool.LockStats()
	return Stats{
		Steals:          s,
		FailedSteals:    f,
		LocalDispatches: l,
		LockOps:         ops,
		LockNs:          ns,
		MaxDeques:       d.pool.MaxDeques(),
	}
}

// CheckInvariants verifies the Lemma 3.1 ordering over the pool (tests
// and quiescent moments only); curr gives each worker's running thread.
func (d *DFD[T]) CheckInvariants(curr func(w int) (T, bool)) error {
	return d.pool.CheckInvariants(curr)
}
