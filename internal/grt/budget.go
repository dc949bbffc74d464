package grt

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrBudget is the error of jobs canceled because an allocation pushed
// their Budget's live heap past its limit. The offending job is poisoned
// exactly like a context cancellation — its threads die at their next
// scheduling points — and its heap balance is returned to the budget when
// the last of them retires.
var ErrBudget = errors.New("grt: memory budget exceeded")

// Budget is a shared memory-accounting group: every job submitted with
// one (SubmitWith) charges its Alloc/Free traffic against the group's
// live-heap balance in addition to its own JobStats. It is the serving
// layer's per-tenant quota, layered above the paper's per-steal threshold
// K — K bounds how much any one stolen thread allocates before preemption
// (the S1 + O(K·p·D) space bound), while a Budget caps the *sum* of a
// tenant's concurrently live heap across all of its jobs, killing the job
// whose allocation crosses the line.
//
// A limit of 0 means no quota (∞) — the same convention as Config.K.
// All methods are safe for concurrent use; charging is lock-free.
type Budget struct {
	limit atomic.Int64
	live  atomic.Int64
	hw    atomic.Int64
	kills atomic.Int64
}

// NewBudget returns a budget enforcing limit bytes of live heap across
// its jobs; limit <= 0 means no quota (∞), accounting only.
func NewBudget(limit int64) *Budget {
	b := &Budget{}
	if limit > 0 {
		b.limit.Store(limit)
	}
	return b
}

// Limit returns the current limit (0 = no quota).
func (b *Budget) Limit() int64 { return b.limit.Load() }

// SetLimit resizes the budget online — the paper's §7 observation that
// the memory threshold can be adjusted at runtime to trade space for
// parallelism, applied to the tenant quota layered above K. The new
// limit governs the next charge: raising it immediately stops further
// kills, lowering it does not retroactively kill jobs whose heap is
// already live — the next allocation that lands past the new line does.
// limit <= 0 disables the quota (accounting continues).
func (b *Budget) SetLimit(limit int64) {
	if limit < 0 {
		limit = 0
	}
	b.limit.Store(limit)
}

// HeapLive returns the group's current Alloc−Free balance. It is the sum
// of the live balances of the budget's in-flight jobs: every retiring job
// settles its final balance back (see Job lifecycle), so an idle budget
// always reads 0.
func (b *Budget) HeapLive() int64 { return b.live.Load() }

// HeapHW returns the high-water of HeapLive over the budget's lifetime.
func (b *Budget) HeapHW() int64 { return b.hw.Load() }

// Kills returns how many jobs this budget has canceled with ErrBudget.
func (b *Budget) Kills() int64 { return b.kills.Load() }

// Remaining returns limit − HeapLive, the headroom an admission
// controller gates on; it returns 0 when over and is meaningless (always
// 0) for an unlimited budget.
func (b *Budget) Remaining() int64 {
	limit := b.limit.Load()
	if limit <= 0 {
		return 0
	}
	if r := limit - b.live.Load(); r > 0 {
		return r
	}
	return 0
}

// charge moves the group balance by n bytes and reports whether a
// positive charge landed past the limit. It only accounts; Job.charge
// enforces.
func (b *Budget) charge(n int64) (exceeded bool) {
	v := b.live.Add(n)
	if n <= 0 {
		return false
	}
	atomicMax(&b.hw, v)
	limit := b.limit.Load()
	return limit > 0 && v > limit
}

// settle returns a retiring job's final heap balance to the group, so a
// canceled or leaky job does not consume its tenant's budget forever.
// Called exactly once, from finishJob, after the job's last thread
// completed — no further charges can race it.
func (b *Budget) settle(j *Job) {
	if n := j.heapLive.Load(); n != 0 {
		b.live.Add(-n)
	}
}

// SubmitOpts carries the optional attachments of a SubmitWith submission.
type SubmitOpts struct {
	// Budget, when non-nil, additionally charges the job's heap
	// accounting against this shared group and cancels the job with
	// ErrBudget if its allocations push the group past its limit.
	Budget *Budget

	// TenantTag and JobTag, when either is nonzero, are recorded as an
	// EvJobAnnotate trace event right after the job's EvJobBegin — under
	// the same submission lock, so replay learns the job's owner before
	// any of its threads run. Both are opaque to the runtime; the serving
	// layer stamps its tenant id and request sequence so a recorded trace
	// can be filtered per tenant (rtrace.FilterTenant).
	TenantTag int64
	JobTag    int64
}

// SubmitWith is Submit plus options; Submit is SubmitWith with none.
func (rt *Runtime) SubmitWith(ctx context.Context, root func(*T), opts SubmitOpts) (*Job, error) {
	return rt.submit(ctx, root, opts)
}
