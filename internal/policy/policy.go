// Package policy is the single home of the scheduling policies the paper
// studies — DFDeques(K) (§3.3), the WS work stealer of Blumofe & Leiserson
// (DFDeques(∞), §3.3), the ADF depth-first scheduler, and the FIFO
// baseline — factored out of the two engines that drive them:
//
//   - the serial machine simulator (internal/machine + internal/sched),
//     whose schedulers are thin adapters over the primitives here (Quota,
//     PrioQueue, FIFOQueue, WSPool, and core.Pool's arbitrated steal);
//   - the real concurrent runtime (internal/grt), whose workers drive a
//     Policy implementation event by event.
//
// The ready-pool protocol — the ordered deque list R with leftmost-p
// bottom-steals, the per-steal memory quota K, the dummy-thread splitting
// of large allocations, and the global-queue variants — therefore exists
// exactly once; a new scheduler lands in one file here instead of one per
// engine.
//
// Lock-order contract (shared with core.SharedPool and internal/grt):
//
//	R spine → the caller's priority lock (inside less)
//
// Deques themselves carry no lock: every item operation is nonblocking
// (the ABP-style tag/bottom protocol in internal/deque), so owners and
// thieves never serialize on anything but the spine for membership
// changes — WS adds only the tiny injector-side inbox mutex, which no
// worker path touches. The queue policies (ADF, FIFO) use a single
// internal mutex that is a leaf to everything except the priority lock,
// which less may take inside it. See DESIGN.md §5.
package policy

// Stats is the counter set every runtime policy reports.
type Stats struct {
	// Steals counts successful shared acquisitions: deque steals for
	// DFDeques and WS, global-queue takes for ADF and FIFO.
	Steals int64
	// FailedSteals counts steal attempts that found no victim.
	FailedSteals int64
	// LocalDispatches counts own-deque pops (DFDeques and WS only).
	LocalDispatches int64
	// LockOps counts exclusive acquisitions of the policy's serializing
	// lock: the R spine for DFDeques, the inject mutex for WS, the queue
	// mutex for the global-queue policies. LockNs is their total hold
	// time in nanoseconds, taken only after the policy's MeasureLocks
	// (which must precede any sharing of the policy).
	LockOps int64
	LockNs  int64
	// MaxDeques is the high-water mark of the ready structure: len(R) for
	// DFDeques, the (fixed) per-worker deque count for WS, 1 for the
	// global-queue policies.
	MaxDeques int
}

// Policy is the scheduling policy as the concurrent runtime's workers see
// it: one method per scheduling event of the paper's Figure 5 loop. All
// methods are safe for concurrent use; methods taking a worker index w
// must only be called by worker w. The engine owns parking, accounting and
// the join protocol; the policy owns every ready-thread decision.
type Policy[T any] interface {
	// Name identifies the policy ("DFDeques", "ADF", "FIFO", "WS").
	Name() string
	// Threshold is the memory threshold K in bytes for the dummy-thread
	// transformation of large allocations; 0 disables it (WS: always 0).
	Threshold() int64
	// Seed publishes the root thread before any worker runs.
	Seed(t T)
	// Inject publishes a thread from outside any worker while workers may
	// be running: a newly submitted job's root, or a canceled job's
	// blocked thread being republished so a worker can retire it. The
	// thread enters the ready structure at its priority position (a new
	// deque for DFDeques, the priority slot for ADF), so Lemma 3.1
	// ordering survives mid-run injection. Because later-submitted roots
	// enter at back-of-priority, the order a serving layer injects
	// admitted jobs IS their execution-priority order among roots — an
	// admission controller (internal/serve) implements weighted-fair
	// scheduling purely by choosing its Inject order, with no policy
	// cooperation needed.
	Inject(t T)
	// Fork publishes child, just forked on worker w; the parent keeps
	// running (work-first). Deque policies push the child on w's own
	// deque, so a deque holds its highest-priority thread at the bottom
	// (the steal end) and its lowest at the top; global-queue policies
	// insert the child at its priority position. Per-dispatch quotas are
	// NOT reset: the parent's dispatch continues.
	Fork(w int, child T)
	// JoinPop claims child for an inline join on worker w: remove child
	// from the ready structure iff it is still exactly where Fork
	// published it (the top of w's own deque), reporting success. The
	// check and the removal must be one linearization point so a racing
	// steal cannot double-claim the thread. Global-queue policies always
	// return false — an inline claim would bypass the queue's order.
	JoinPop(w int, child T) bool
	// Charge deducts n bytes from w's memory quota; false means the quota
	// is exhausted and the engine must preempt the thread without
	// performing the allocation (§3.3). Policies without a quota always
	// return true.
	Charge(w int, n int64) bool
	// Credit returns n freed bytes to w's quota (quota bounds *net*
	// allocation).
	Credit(w int, n int64)
	// Preempt republishes a thread the engine preempted after a Charge
	// veto. Only reachable on policies whose Charge can return false.
	Preempt(w int, t T)
	// Wake publishes a thread woken by a lock release or future write at
	// its priority position (§5's extension beyond nested parallelism).
	Wake(w int, t T)
	// Next picks w's next thread after its current one suspended or
	// blocked: the own-deque pop for the deque policies, a queue take for
	// the global-queue policies. ok is false when w must steal (Acquire).
	Next(w int) (T, bool)
	// Terminate picks w's next thread after its current one terminated,
	// waking woke (the joined parent) if hasWoke. It owns the §3.3
	// dummy-termination give-up and FIFO's requeue-the-parent rule.
	Terminate(w int, woke T, hasWoke bool) (T, bool)
	// Dummy records that w executed a dummy thread; DFDeques gives up the
	// deque at the dummy's termination (§3.3).
	Dummy(w int)
	// Acquire makes one non-blocking attempt to get a thread for an idle
	// worker (a steal, or a queue take). On success the policy resets w's
	// quota. The engine loops, spins and parks around it.
	Acquire(w int) (T, bool)
	// HasWork reports (lock-free where possible) whether any thread is
	// published; the engine's park protocol re-checks it.
	HasWork() bool
	// Stats returns the policy's counters; called once, after the run.
	Stats() Stats
}

// Quota is the per-worker memory-quota vector shared by every K-bounded
// policy in both engines: DFDeques' per-steal quota and ADF's per-dispatch
// quota (§3.3, footnote 14). The threshold k is passed per call so an
// adaptive controller (§7) can move it between calls; k = 0 means no
// quota. Entry w is only ever touched by worker/processor w, so the vector
// needs no locking even in the concurrent runtime.
type Quota struct {
	rem []int64
}

// NewQuota returns a quota vector for p workers, all exhausted until the
// first Reset.
func NewQuota(p int) *Quota { return &Quota{rem: make([]int64, p)} }

// Reset refills w's quota to k (on a successful steal or dispatch).
func (q *Quota) Reset(w int, k int64) { q.rem[w] = k }

// Charge deducts n bytes from w's quota; false means exhausted (the
// caller must preempt without allocating). k = 0 never vetoes.
func (q *Quota) Charge(w int, n, k int64) bool {
	if k == 0 {
		return true
	}
	if n <= q.rem[w] {
		q.rem[w] -= n
		return true
	}
	return false
}

// Credit returns n freed bytes to w's quota, clamped to k: the quota
// bounds net allocation between steals.
func (q *Quota) Credit(w int, n, k int64) {
	if k == 0 {
		return
	}
	q.rem[w] += n
	if q.rem[w] > k {
		q.rem[w] = k
	}
}

// Remaining returns w's unspent quota.
func (q *Quota) Remaining(w int) int64 { return q.rem[w] }

// DummyLeaves returns the number of dummy threads the §3.3 big-allocation
// transformation forks before an allocation of n > k bytes: ⌈n/k⌉, one
// virtual allocation of k per leaf.
func DummyLeaves(n, k int64) int64 { return (n + k - 1) / k }

// SplitDummies splits a dummy tree of n > 1 leaves into its two subtrees.
// Both engines build the same shape from it, which is what makes thread
// and dummy counts comparable across the simulator and the real runtime.
func SplitDummies(n int64) (left, right int64) { return n / 2, n - n/2 }
