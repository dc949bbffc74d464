// Package grt is a real, concurrent user-level fork-join thread runtime —
// the Go analogue of the paper's modified Solaris Pthreads library (§5).
// User threads are goroutines multiplexed onto a fixed set of workers by a
// pluggable scheduling policy (internal/policy): DFDeques(K) (the paper's
// algorithm, §3), WS (the Blumofe & Leiserson work stealer — DFDeques(∞),
// §3.3), ADF(K) (the depth-first baseline), or FIFO (the original library
// scheduler). The worker loop is policy-agnostic — one event loop drives
// whatever policy Config selects; the same policies, through thin
// adapters, also drive the machine simulator (internal/sched).
//
// The paper's implementation serializes all scheduling state — the deque
// list R, the global queue, thread priorities — behind a single lock (§5:
// "R is implemented as a linked list of deques protected by a shared
// scheduler lock") and names that serialization as its scalability limit.
// This runtime synchronizes fine-grained instead: lock-free deques (the
// owner pushes and pops with atomic loads and stores, a thief claims the
// bottom with one CAS), a spine lock on R taken only by steals and
// membership changes, a dedicated read-write lock for the priority order,
// per-thread locks for the join protocol, and atomic heap-quota
// accounting so the Alloc path takes no lock at all. Stats counts (and,
// under MeasureContention, times) the scheduler locks that remain. See
// DESIGN.md §5 ("beyond the paper").
//
// Threads yield to their worker at exactly the paper's scheduling points:
// fork, join on a live child, quota-checked allocation, lock block, dummy
// execution, and termination.
//
// Execution is work-first: Fork publishes the *child* and the parent
// keeps running inline; Join claims the child back with a conditional pop
// and runs its body inline in the parent's own frame when nothing — a
// thief, a woken thread — has displaced it. A goroutine (stack + channel
// pair) is promoted lazily, only when a thread is actually dispatched by
// a worker (it was stolen or woken) or blocks mid-inline-run, so a
// never-stolen fork+join costs two deque operations and zero allocations
// in steady state — the "pay synchronization only on steals" discipline.
// The trace verifier (internal/rtrace) checks the resulting schedules
// against Lemma 3.1.
//
// Workers hand threads off synchronously: a worker resumes a thread's
// goroutine and sleeps until the thread reports its next blocking event,
// so at most Workers user goroutines execute user code at any instant —
// the runtime schedules threads, not the Go scheduler.
//
// The runtime is a long-lived service: New starts the worker pool once,
// Submit runs any number of root computations (concurrently and
// back-to-back) on the same warm workers — each job its own fork-join
// tree with its own stats, panic isolation, and context
// cancellation/deadline — and Shutdown drains or aborts the in-flight
// jobs and joins every worker. Cancellation is a poison flag checked with
// one atomic load at the paper's existing scheduling points (fork, join,
// quota-checked allocation, lock/future block, dummy execution), so the
// DFDeques(K) protocol and its scheduling bounds are untouched on the
// uncanceled path. Run remains the one-shot convenience wrapper:
// New + Submit + Wait + Shutdown.
package grt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dfdeques/internal/om"
	"dfdeques/internal/policy"
	"dfdeques/internal/rtrace"
)

// Kind selects the scheduling algorithm.
type Kind int

const (
	// DFDeques is algorithm DFDeques(K) (§3.3).
	DFDeques Kind = iota
	// ADF is the asynchronous depth-first scheduler with per-thread
	// memory quota.
	ADF
	// FIFO is a single global FIFO run queue; forked children are
	// enqueued and the parent keeps running (breadth-first).
	FIFO
	// WS is the Blumofe & Leiserson work stealer — one deque per worker,
	// steal-from-bottom of a uniformly random victim, no memory quota:
	// the DFDeques(∞) specialization of §3.3. K is ignored.
	WS
)

func (k Kind) String() string {
	switch k {
	case DFDeques:
		return "DFDeques"
	case ADF:
		return "ADF"
	case FIFO:
		return "FIFO"
	case WS:
		return "WS"
	}
	return "Kind?"
}

// Config configures a runtime.
type Config struct {
	// Workers is the number of scheduler workers (virtual processors).
	Workers int
	// Sched selects the algorithm.
	Sched Kind
	// K is the memory threshold in bytes; 0 means no quota (∞). For
	// DFDeques it bounds net allocation per steal; for ADF, per thread
	// dispatch. WS ignores it (that is its definition: DFDeques(∞)).
	K int64
	// Seed drives steal-victim randomness.
	Seed int64
	// MeasureContention enables the wall-clock contention counters in
	// Stats (StealWaitNs, SchedLockNs). Off by default: timing every
	// scheduler-lock hold and every acquire costs two clock reads each,
	// which would distort the very benchmarks the counters exist to
	// explain.
	MeasureContention bool
	// Probe receives one event per scheduling action (see internal/rtrace
	// for the event model); nil disables recording. Pass an
	// *rtrace.Recorder to capture a run for export or replay verification
	// — Run stamps the recorder's metadata automatically. Building with
	// -tags grtnotrace compiles every hook site out regardless.
	Probe rtrace.Probe
}

// Stats reports what a run did.
type Stats struct {
	TotalThreads    int64
	MaxLiveThreads  int64
	DummyThreads    int64
	Steals          int64 // successful shared acquisitions
	FailedSteals    int64
	LocalDispatches int64 // own-deque dispatches (DFDeques and WS)
	Preemptions     int64 // quota preemptions
	HeapHW          int64 // high-water of Alloc−Free bytes
	HeapLive        int64 // final Alloc−Free balance (0 when frees match)
	MaxDeques       int64 // high-water of the ready structure (len(R); p for WS; 1 for queues)

	// Contention counters. SchedLockOps counts exclusive acquisitions of
	// the policy's serializing lock: the R spine for DFDeques, the queue
	// mutex for ADF and FIFO, the inject mutex for WS. The *Ns counters
	// are populated only under MeasureContention.
	SchedLockOps int64
	SchedLockNs  int64 // total ns the serializing lock was held exclusively
	StealWaitNs  int64 // total ns idle workers spent acquiring a thread
}

// evKind is a blocking event a thread yields to its worker. Everything
// that does not block — forks, allocations, frees, touches, unlocks,
// future writes — runs inline as agent of the worker.
type evKind uint8

const (
	evJoin evKind = iota
	evLock
	evFutureGet
	evDone
	// evPreempt is the quota-exhaustion park: the thread found Charge
	// vetoing its allocation inline and suspends so the worker can
	// republish it (§3.3, "memory quota exhausted").
	evPreempt
)

type event struct {
	kind  evKind
	self  *T      // the thread that yielded the event: an inline frame, not necessarily the one the worker dispatched
	child *T      // evJoin
	n     int64   // evPreempt bytes
	mu    *Mutex  // evLock
	fut   *Future // evFutureGet
}

// T is a user-level thread handle, passed to every thread body. Methods on
// T must only be called from within that thread's body.
type T struct {
	rt     *Runtime
	job    *Job
	body   func(*T)
	prio   *om.Record
	resume chan struct{}
	yield  chan event
	// started flips once, when the thread first gets a stack: the worker
	// dispatch that spawns its goroutine, or the first blocking park of a
	// frame running inline. It is
	// atomic because the inline-join guard reads it while a thief may be
	// concurrently dispatching the thread; the reading side never trusts
	// it alone — the conditional pop (policy.JoinPop) arbitrates.
	started atomic.Bool
	dummy   bool
	root    bool  // job root: released by evDone (nothing ever joins it)
	tid     int64 // stable trace id: first root is 1, then submit/fork order

	// Frame state. w is the worker currently driving
	// the thread (set by the dispatching worker before resuming, and
	// propagated chain-upward when an inline join returns): inline code
	// traces and consults per-worker policy state as agent of worker w
	// while that worker is parked in step. base is the goroutine-backed
	// root of the thread's inline chain — the frame whose channel pair a
	// blocking inline frame borrows (borrowed marks that loan, so release
	// returns the channels to nil rather than to the pool). At most one
	// frame of a chain can be parked at a time (the chain is one carrier
	// goroutine), so the shared pair never has two receivers.
	w        int
	base     *T
	borrowed bool

	// Owned by the thread goroutine:
	unjoined []*T

	// stateMu guards the done/waiter arbitration: it is the join
	// protocol's only synchronization. done itself is atomic so the join
	// fast path can poll it without paying a lock cycle; the waiter
	// handoff still arbitrates under stateMu.
	stateMu sync.Mutex
	done    atomic.Bool
	waiter  *T
}

// finish marks t done and returns the thread waiting on it, if any. The
// child side of the join protocol.
func (t *T) finish() (woke *T) {
	t.stateMu.Lock()
	// The waiter hand-off must complete before done is published: a
	// parent polling isDone lock-free may release t to the pool the
	// instant the store lands, so the store has to be finish's last
	// write to the frame. Lock-holders are indifferent to the order.
	woke = t.waiter
	t.waiter = nil
	t.done.Store(true)
	t.stateMu.Unlock()
	return woke
}

// registerWaiter records waiter as the thread to wake when t terminates,
// unless t is already done (reported as true: the parent keeps running).
// The parent side of the join protocol, called by worker w. The block
// event is recorded under stateMu: the child's finish acquires the same
// lock before its Terminate can dispatch the waiter, so the block's
// sequence number always precedes the hand-off dispatch's.
func (t *T) registerWaiter(w int, waiter *T) (alreadyDone bool) {
	t.stateMu.Lock()
	defer t.stateMu.Unlock()
	if t.done.Load() {
		return true
	}
	t.waiter = waiter
	t.rt.trace(w, rtrace.EvBlock, waiter.tid, rtrace.BlockJoin, t.tid)
	return false
}

// isDone reports whether t has terminated. The atomic load is ordered
// after every write of t's body: finish stores done on the thread's own
// goroutine (or, for promoted frames, on the worker that received its
// terminal yield), so an observer of true inherits the body's effects.
func (t *T) isDone() bool {
	return t.done.Load()
}

// Runtime executes nested-parallel computations under one scheduler. It
// is a persistent service: build one with New, feed it jobs with Submit,
// and stop it with Shutdown. The one-shot Run wraps that whole lifecycle.
type Runtime struct {
	cfg Config

	// pol is the scheduling policy: it owns every ready-thread decision.
	// The policies are internally synchronized (fine-grained); threshold
	// caches pol.Threshold() for the Alloc hot path.
	pol       policy.Policy[*T]
	threshold int64

	// probe records scheduling events (nil: tracing off). Engine-side
	// events need no lock — each is ordered by its worker's program order
	// and the channel handoffs; the policies record structural events
	// under their own locks; scheduler-side (lane -1) events are
	// serialized by extMu.
	probe rtrace.Probe

	// mu only parks and wakes idle workers (with cond) and arbitrates the
	// deadlock check — it is never held while consulting the policy.
	mu   sync.Mutex
	cond *sync.Cond

	// extMu serializes every scheduler interaction that does not come
	// from a worker: Submit's publication, the cancel sweep's
	// republications, and the deadlock confirmation. It gives lane -1 of
	// the trace a single writer mid-run, and it is what makes a Submit
	// atomic against the deadlock detector (counters and publication
	// become visible together). Order: extMu → rt.mu.
	extMu sync.Mutex

	// jobsMu guards the job registry and the draining flag; it is a leaf
	// lock (taken under extMu by Submit, bare by job completion).
	jobsMu   sync.Mutex
	jobs     map[int64]*Job
	draining bool

	// prioMu guards the om priority list for every policy (leaf lock), and
	// every thread's prio field: a pool comparing two threads may hold a
	// stale pointer to one that has since completed (see prioLess).
	prioMu sync.RWMutex
	prios  om.List

	// Accounting: atomics, so the hot paths (fork, alloc) never need a
	// lock for bookkeeping. Per-job counters live on Job; the runtime
	// keeps only what scheduling itself needs — the global live-thread
	// count (deadlock detection), the trace id and job id wells, and the
	// steal-wait counter (the policy counts its own lock).
	live         atomic.Int64
	tids, jobIDs atomic.Int64
	stealWaitNs  atomic.Int64

	// Idle parking (guarded by mu) plus a lock-free mirror of the waiter
	// count so publishers can skip the wake-up lock when nobody sleeps.
	// spinning counts workers awake inside acquire but not yet holding a
	// thread: publishers skip the wake-up while one exists, and a
	// successful spinner wakes its own successor — the single-spinner
	// protocol that keeps a fork burst from broadcasting to every
	// sleeper (see acquire and wakeIdlers for the ordering argument).
	idleWaiters int
	idlers      atomic.Int64
	spinning    atomic.Int64
	futileWakes atomic.Int64 // consecutive wakes that acquired nothing
	wakeSkips   atomic.Int64 // publications skipped while throttled
	stopped     atomic.Bool

	wg sync.WaitGroup

	// shutMu serializes Shutdown calls (idempotence).
	shutMu   sync.Mutex
	shutdown bool
}

// ErrShutdown is returned by Submit after Shutdown has begun, and is the
// error of jobs aborted by a shutdown whose context expired.
var ErrShutdown = errors.New("grt: runtime is shut down")

// New builds a runtime and starts its worker pool. The workers idle
// (parked, not spinning) until Submit gives them work; call Shutdown to
// join them.
func New(cfg Config) (*Runtime, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	rt := &Runtime{cfg: cfg, jobs: make(map[int64]*Job)}
	rt.cond = sync.NewCond(&rt.mu)
	less := func(a, b *T) bool { return rt.prioLess(a, b) }
	switch cfg.Sched {
	case DFDeques:
		rt.pol = policy.NewDFD(cfg.Workers, cfg.K, less, cfg.Seed)
	case ADF:
		rt.pol = policy.NewADF(cfg.Workers, cfg.K, less)
	case FIFO:
		rt.pol = policy.NewFIFO[*T](cfg.K)
	case WS:
		rt.pol = policy.NewWS[*T](cfg.Workers, cfg.Seed)
	default:
		return nil, fmt.Errorf("grt: unknown scheduler kind %d", cfg.Sched)
	}
	rt.threshold = rt.pol.Threshold()
	if cfg.MeasureContention {
		// Every policy implements MeasureLocks; like Instrument below,
		// the assertion keeps Policy itself measurement-agnostic.
		if m, ok := rt.pol.(interface{ MeasureLocks() }); ok {
			m.MeasureLocks()
		}
	}

	if rtrace.Enabled && cfg.Probe != nil {
		rt.probe = cfg.Probe
		// Anything that can carry run metadata gets it stamped: a
		// *rtrace.Recorder directly, or an rtrace.Tee that forwards to the
		// recorders inside it.
		if rec, ok := cfg.Probe.(interface{ SetMeta(rtrace.Meta) }); ok {
			rec.SetMeta(rtrace.Meta{
				Policy: rt.pol.Name(), Workers: cfg.Workers,
				K: rt.threshold, Seed: cfg.Seed,
			})
		}
		// Every policy implements Instrument; the interface assertion
		// keeps Policy itself tracing-agnostic.
		if ip, ok := rt.pol.(interface {
			Instrument(rtrace.Probe, func(*T) int64)
		}); ok {
			ip.Instrument(cfg.Probe, func(t *T) int64 { return t.tid })
		}
	}

	for w := 0; w < cfg.Workers; w++ {
		rt.wg.Add(1)
		go func(w int) {
			defer rt.wg.Done()
			rt.worker(w)
		}(w)
	}
	return rt, nil
}

// Submit starts root as the root thread of a new job on the warm worker
// pool and returns immediately. The job runs until its tree completes or
// ctx is canceled — cancellation and deadlines poison the job's threads,
// which then die at their next scheduling point; Job.Wait reports the
// outcome. Submit fails with ErrShutdown once Shutdown has begun.
func (rt *Runtime) Submit(ctx context.Context, root func(*T)) (*Job, error) {
	return rt.submit(ctx, root, SubmitOpts{})
}

func (rt *Runtime) submit(ctx context.Context, root func(*T), opts SubmitOpts) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j := &Job{rt: rt, ctx: ctx, budget: opts.Budget, done: make(chan struct{})}
	rootT := rt.newT(root)
	rootT.job = j
	rootT.root = true
	j.live.Store(1)
	j.tot.Store(1)
	j.maxLive.Store(1)

	// Publication is atomic under extMu: the deadlock detector confirms
	// under the same lock, so it can never observe the raised live count
	// without the published root (or vice versa). Job roots take the
	// lowest 1DF priority — they come after everything already running —
	// and enter the ready structure through the policy's
	// priority-positioned injection, preserving Lemma 3.1.
	rt.extMu.Lock()
	rt.jobsMu.Lock()
	if rt.draining {
		rt.jobsMu.Unlock()
		rt.extMu.Unlock()
		return nil, ErrShutdown
	}
	j.id = rt.jobIDs.Add(1)
	rt.jobs[j.id] = j
	rt.jobsMu.Unlock()

	rt.prioPushBack(rootT)
	rootT.tid = rt.tids.Add(1)
	rt.live.Add(1)
	rt.trace(-1, rtrace.EvJobBegin, j.id, rootT.tid, 0)
	if opts.TenantTag != 0 || opts.JobTag != 0 {
		rt.trace(-1, rtrace.EvJobAnnotate, j.id, opts.TenantTag, opts.JobTag)
	}
	rt.pol.Inject(rootT)
	rt.extMu.Unlock()
	rt.forceWake()

	if ctx.Done() != nil {
		// The context watcher: poison the job the moment ctx fires. It
		// exits when the job drains, so Shutdown leaves no goroutine
		// behind.
		go func() {
			select {
			case <-ctx.Done():
				j.cancel(ctx.Err())
			case <-j.done:
			}
		}()
	}
	return j, nil
}

// finishJob retires a job whose last thread just completed on worker w.
func (rt *Runtime) finishJob(w int, j *Job) {
	var failed int64
	if j.Err() != nil {
		failed = 1
	}
	rt.trace(w, rtrace.EvJobEnd, j.id, failed, 0)
	if j.budget != nil {
		j.budget.settle(j)
	}
	rt.jobsMu.Lock()
	delete(rt.jobs, j.id)
	rt.jobsMu.Unlock()
	close(j.done)
}

// Shutdown stops the runtime: it refuses new submissions, waits for the
// in-flight jobs to drain, and joins every worker. If ctx is canceled
// first, the remaining jobs are aborted (poisoned with ErrShutdown),
// their threads drained at their next scheduling points, and ctx's error
// returned; the workers are joined either way, so a returned Shutdown
// leaves no runtime goroutine behind. Idempotent.
func (rt *Runtime) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	rt.shutMu.Lock()
	defer rt.shutMu.Unlock()

	rt.jobsMu.Lock()
	rt.draining = true
	inflight := make([]*Job, 0, len(rt.jobs))
	for _, j := range rt.jobs {
		inflight = append(inflight, j)
	}
	rt.jobsMu.Unlock()

	var ctxErr error
	for _, j := range inflight {
		select {
		case <-j.done:
		case <-ctx.Done():
			ctxErr = ctx.Err()
		}
		if ctxErr != nil {
			break
		}
	}
	if ctxErr != nil {
		for _, j := range inflight {
			j.cancel(ErrShutdown)
		}
		// Poisoned threads still need a scheduling point to die at; the
		// drain is bounded by the job's longest event-free stretch.
		for _, j := range inflight {
			<-j.done
		}
	}

	rt.stopped.Store(true)
	rt.mu.Lock()
	rt.cond.Broadcast()
	rt.mu.Unlock()
	rt.wg.Wait()
	rt.shutdown = true
	return ctxErr
}

// Run executes root as the root thread of a fresh one-job runtime and
// blocks until the computation completes: New + Submit + Wait + Shutdown.
// It returns the run's statistics and an error if any thread body
// panicked or violated the nested-parallel discipline.
func Run(cfg Config, root func(*T)) (Stats, error) {
	rt, err := New(cfg)
	if err != nil {
		return Stats{}, err
	}
	j, err := rt.Submit(context.Background(), root)
	if err != nil {
		rt.Shutdown(context.Background())
		return Stats{}, err
	}
	js, jerr := j.Wait()
	rt.Shutdown(context.Background())
	return rt.Stats(js), jerr
}

// Stats merges a job's accounting with the runtime's scheduler-wide
// counters into the flat one-shot report Run returns. For a single-job
// runtime the result is exactly the historical Run stats; with several
// jobs the scheduler counters span all of them.
func (rt *Runtime) Stats(js JobStats) Stats {
	ps := rt.pol.Stats()
	return Stats{
		TotalThreads:    js.TotalThreads,
		MaxLiveThreads:  js.MaxLiveThreads,
		DummyThreads:    js.DummyThreads,
		Steals:          ps.Steals,
		FailedSteals:    ps.FailedSteals,
		LocalDispatches: ps.LocalDispatches,
		Preemptions:     js.Preemptions,
		HeapHW:          js.HeapHW,
		HeapLive:        js.HeapLive,
		MaxDeques:       int64(ps.MaxDeques),
		SchedLockOps:    ps.LockOps,
		SchedLockNs:     ps.LockNs,
		StealWaitNs:     rt.stealWaitNs.Load(),
	}
}

// tPool recycles thread frames across forks. A terminated thread's frame
// goes back to the pool once the last reference lets go — the joining
// parent for ordinary threads (Join), the terminating worker for job
// roots (evDone) — so the fork hot path allocates nothing in steady
// state. A frame is born bare (the common inline fork+join never needs a
// channel pair), and a promoted frame keeps its own pair across
// recycling. At release the goroutine has fully drained both channels
// (death always passes through the evDone handoff), so a recycled frame
// starts from the same quiescent channel state as a fresh one; borrowed
// pairs (an inline frame promoted mid-run borrows its chain base's
// channels) are returned to nil instead.
var tPool = sync.Pool{New: func() any { return &T{} }}

func (rt *Runtime) newT(body func(*T)) *T {
	t := tPool.Get().(*T)
	t.rt = rt
	t.body = body
	return t
}

// releaseT returns a dead thread's frame to the pool. The caller must be
// the frame's last referent: the parent after Join observed isDone, or
// the evDone handler for a job root. Threads of a canceled job whose
// parents unwound without joining are simply never released — the
// garbage collector reclaims them, as before pooling. prio is already nil:
// completion cleared it under prioMu.
func releaseT(t *T) {
	t.job = nil
	t.body = nil
	t.started.Store(false)
	t.dummy = false
	t.root = false
	t.tid = 0
	t.w = 0
	t.base = nil
	t.unjoined = t.unjoined[:0]
	t.done.Store(false)
	t.waiter = nil
	if t.borrowed {
		t.resume, t.yield = nil, nil
		t.borrowed = false
	}
	tPool.Put(t)
}

// noteFork does the bookkeeping when child is forked by curr: priority
// insertion, trace id, and thread counters.
func (rt *Runtime) noteFork(curr, child *T) {
	rt.prioInsertBefore(child, curr)
	child.tid = rt.tids.Add(1)
	rt.live.Add(1)
	j := curr.job
	j.tot.Add(1)
	atomicMax(&j.maxLive, j.live.Add(1))
	if child.dummy {
		j.dummies.Add(1)
	}
}

// trace records one engine-side event when tracing is on. With the
// grtnotrace build tag the whole call compiles away.
func (rt *Runtime) trace(w int, k rtrace.Kind, a, b, c int64) {
	if rtrace.Enabled && rt.probe != nil {
		rt.probe.Event(w, k, a, b, c)
	}
}

// atomicMax raises a to at least v.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// ---- Priority order (om list) wrappers -----------------------------------
//
// The om list is not safe for concurrent use, and its relabeling moves
// tags of records other than the one being inserted, so even Less needs
// protection. prioMu is a leaf lock, and every write of a thread's prio
// field happens under it.

// prioPushBack gives t the lowest priority (a new job root).
func (rt *Runtime) prioPushBack(t *T) {
	rt.prioMu.Lock()
	defer rt.prioMu.Unlock()
	t.prio = rt.prios.PushBack()
}

// prioInsertBefore gives child the priority immediately above parent's.
func (rt *Runtime) prioInsertBefore(child, parent *T) {
	rt.prioMu.Lock()
	defer rt.prioMu.Unlock()
	child.prio = rt.prios.InsertBefore(parent.prio)
}

// prioDelete retires a completed thread's priority record.
func (rt *Runtime) prioDelete(t *T) {
	rt.prioMu.Lock()
	defer rt.prioMu.Unlock()
	rt.prios.Delete(t.prio)
	t.prio = nil
}

// prioLess reports whether a has higher 1DF priority than b. A pool
// comparing against a thread it peeked off a deque end can race that
// thread's owner: the owner pops it, runs it inline and completes it,
// retiring its record, before the comparison runs. A retired record is
// no anchor at all, so the comparison reports false and the caller
// treats it like a peek that did not stabilize.
func (rt *Runtime) prioLess(a, b *T) bool {
	rt.prioMu.RLock()
	defer rt.prioMu.RUnlock()
	if a.prio == nil || b.prio == nil {
		return false
	}
	return om.Less(a.prio, b.prio)
}

// ---- Thread-side API -----------------------------------------------------

// step resumes t on worker w and waits for its next blocking event. Only
// the worker currently responsible for t may call it. This is the
// promotion point for dispatched threads: a thread reaches a worker only
// by being stolen, woken, or injected, and only then does it get a
// goroutine (and, if it never had one, a channel pair). Setting t.w first
// is what lets the resumed thread's inline code act as agent of worker w
// — the channel handoff orders the write against every thread-side read.
func (rt *Runtime) step(w int, t *T) event {
	t.w = w
	if !t.started.Load() {
		if t.resume == nil {
			t.resume = make(chan struct{}, 1)
			t.yield = make(chan event)
		}
		t.base = t
		rt.trace(w, rtrace.EvPromote, t.tid, 0, 0)
		t.started.Store(true)
		go t.main()
	}
	// Read the channel fields before the resume-send: the moment the send
	// lands, the chain is running and may complete t — if t is a borrowed
	// inline frame, its joining parent then releases it, nilling these very
	// fields concurrently. The locals still name the right channels (a
	// borrowed frame shares its base's pair, which outlives the frame).
	resume, yield := t.resume, t.yield
	resume <- struct{}{}
	return <-yield
}

// park suspends an inline-running thread to its chain's worker: the
// blocking path (join on a live child, contended lock, unset future,
// exhausted quota). The first park of a frame running inline promotes it
// — it borrows the chain base's channel pair and counts as started, so no
// later join can claim it inline. If the job was poisoned, resumption
// kills the thread instead of returning to user code: the sentinel panic
// unwinds the goroutine (running user defers on the way) and main
// reports the termination. The worker publishes or queues the frame
// after it receives the yield: the thread must never publish its own
// frame while still running, or a second worker could dispatch it and
// the base's channels would have two receivers.
func (t *T) park(ev event) {
	if !t.started.Load() {
		t.resume = t.base.resume
		t.yield = t.base.yield
		t.borrowed = true
		t.started.Store(true)
		t.rt.trace(t.w, rtrace.EvPromote, t.tid, 1, 0)
	}
	ev.self = t
	t.yield <- ev
	<-t.resume
	t.checkPoison()
}

// poisonSentinel is the panic value that unwinds a poisoned thread's
// goroutine: when a canceled job's thread is resumed, park panics with it,
// user frames unwind (their defers run), and main's recover swallows it —
// a poison unwind is the cancellation working, not a failure.
type poisonUnwind struct{}

var poisonSentinel poisonUnwind

// main is the thread goroutine's body.
func (t *T) main() {
	<-t.resume
	defer func() {
		if r := recover(); r != nil {
			if _, unwound := r.(poisonUnwind); !unwound {
				// Panic isolation: a panicking body fails and cancels its
				// own job — the rest of the job's tree drains (including
				// any threads parked on its locks); other jobs and the
				// workers are untouched.
				err := fmt.Errorf("grt: thread panicked: %v", r)
				t.job.fail(err)
				t.job.cancel(err)
			}
		}
		t.yield <- event{kind: evDone, self: t}
	}()
	if t.job.poisoned.Load() {
		return // canceled before its first dispatch: die without running
	}
	t.body(t)
	if len(t.unjoined) > 0 {
		panic(fmt.Sprintf("nested-parallel violation: %d forked children not joined", len(t.unjoined)))
	}
}

// checkPoison kills the calling thread if its job was canceled: every
// scheduling point calls it first, so a poisoned thread dies at its next
// fork, join, allocation, free, touch, lock, future access or dummy.
func (t *T) checkPoison() {
	if t.job.poisoned.Load() {
		panic(poisonSentinel)
	}
}

// Fork creates a child thread running body and publishes it; the parent
// keeps running (work-first). The returned handle must be passed to Join
// before the parent returns. No yield, no channel handoff, no goroutine:
// the forking thread does the bookkeeping as agent of its worker (which
// is parked in step while the thread runs, so per-worker policy state has
// a single toucher).
func (t *T) Fork(body func(*T)) *T {
	return t.fork(body, false)
}

func (t *T) fork(body func(*T), dummy bool) *T {
	t.checkPoison()
	rt := t.rt
	child := rt.newT(body)
	child.job = t.job
	child.dummy = dummy
	t.unjoined = append(t.unjoined, child)
	rt.noteFork(t, child)
	var d int64
	if dummy {
		d = 1
	}
	rt.trace(t.w, rtrace.EvFork, t.tid, child.tid, d)
	rt.pol.Fork(t.w, child)
	rt.wakeIdlers()
	return child
}

// Join waits for the most recent unjoined child (which must equal h) to
// terminate. Joins are LIFO, matching the nested-parallel model.
//
// The work-first payoff is the inline claim: if the child is still
// exactly where Fork put it — the top of this worker's own deque,
// untouched by thieves, undisplaced by woken threads — the conditional
// pop removes it there and the parent runs the child's body in its own
// frame, paying no channel handoff and no goroutine. Otherwise the child
// is live elsewhere (stolen, or a global-queue policy owns it) and the
// parent parks. Dummy children are never claimed inline: the §3.3
// dummy-termination give-up must run worker-side (Terminate), so they
// always promote.
//
// Join is a child frame's release point: once isDone is observed the
// joining parent holds the last reference (the terminating worker stops
// touching the frame before finish publishes done), so the frame goes
// back to the pool here. h must not be used after Join returns.
func (t *T) Join(h *T) {
	if len(t.unjoined) == 0 || t.unjoined[len(t.unjoined)-1] != h {
		panic("grt: Join order must be LIFO with the thread's own children")
	}
	t.unjoined = t.unjoined[:len(t.unjoined)-1]
	rt := t.rt
	for {
		if h.isDone() {
			releaseT(h)
			return
		}
		t.checkPoison()
		if !h.dummy && !h.started.Load() && rt.pol.JoinPop(t.w, h) {
			// The parent logically suspends and the child is dispatched
			// in its place — the same block/dispatch pair a parked join
			// produces, so dispatch conservation holds either way.
			rt.trace(t.w, rtrace.EvBlock, t.tid, rtrace.BlockJoin, h.tid)
			rt.trace(t.w, rtrace.EvDispatch, h.tid, rtrace.SrcInline, 0)
			t.joinInline(h)
			// The child ran to completion in this frame; skip the
			// loop-top re-check and release it directly.
			releaseT(h)
			return
		}
		t.park(event{kind: evJoin, child: h})
	}
}

// joinInline runs the claimed child's body in the parent's goroutine. The
// completion bookkeeping mirrors the worker's evDone handler minus the
// impossible cases: an inline child cannot be a job root, cannot have a
// registered waiter (only its parent joins it, and the parent is here),
// and cannot be its job's last live thread (the parent is still live).
// The deferred half runs on panic unwinds too — user panics and poison
// both propagate to the chain's base, and every inline frame they unwind
// through is completed on the way — so thread accounting and the trace's
// dispatch conservation survive cancellation mid-chain.
func (t *T) joinInline(c *T) {
	rt := t.rt
	c.w = t.w
	c.base = t.base
	defer func() {
		// The child may have parked and been redispatched on another
		// worker mid-body; its w is then the chain's current worker, and
		// the parent inherits it.
		t.w = c.w
		rt.trace(c.w, rtrace.EvComplete, c.tid, 0, 0)
		rt.prioDelete(c)
		// finish() reduced to its atomic half: an inline child can have
		// no registered waiter (only its parent joins it, and the parent
		// is running this call), so there is no handoff to arbitrate.
		c.done.Store(true)
		rt.live.Add(-1)
		c.job.live.Add(-1)
		rt.trace(c.w, rtrace.EvDispatch, t.tid, rtrace.SrcTerminate, 0)
	}()
	c.body(c)
	if len(c.unjoined) > 0 {
		panic(fmt.Sprintf("nested-parallel violation: %d forked children not joined", len(c.unjoined)))
	}
}

// ForkJoin forks body and immediately joins it.
func (t *T) ForkJoin(body func(*T)) {
	t.Join(t.Fork(body))
}

// Alloc charges n bytes against the runtime's heap accounting and the
// scheduler's memory quota. Allocations larger than the memory threshold K
// first fork the paper's dummy-thread tree (§3.3), delaying the allocation
// so higher-priority threads can run. The quota is charged inline; a veto
// parks the thread (the worker republishes it, §3.3) and the loop retries
// after redispatch refills the quota.
func (t *T) Alloc(n int64) {
	if n <= 0 {
		return
	}
	rt := t.rt
	if k := rt.threshold; k > 0 && n > k {
		leaves := policy.DummyLeaves(n, k)
		t.forkDummies(leaves)
		t.checkPoison()
		rt.trace(t.w, rtrace.EvAllocExempt, t.tid, n, leaves)
		t.job.charge(n)
		return
	}
	for {
		t.checkPoison()
		if rt.pol.Charge(t.w, n) {
			rt.trace(t.w, rtrace.EvAlloc, t.tid, n, 0)
			t.job.charge(n)
			return
		}
		t.park(event{kind: evPreempt, n: n})
	}
}

// Touch declares that the thread reads or writes `bytes` bytes of data
// block blk — the runtime's locality declaration, mirroring the
// simulator's OpWork (Blk, TouchBytes) footprint. When a trace probe is
// installed the touch is recorded on the executing worker's lane, which
// is what feeds the parallel cache-complexity replay (rtrace.Summarize's
// Cache report). Without a probe Touch returns immediately — no yield,
// no scheduling point — so untraced runs schedule exactly as before.
func (t *T) Touch(blk int32, bytes int64) {
	if !rtrace.Enabled || t.rt.probe == nil || blk == 0 || bytes <= 0 {
		return
	}
	t.checkPoison()
	t.rt.trace(t.w, rtrace.EvTouch, t.tid, int64(blk), bytes)
}

// Free returns n bytes to the heap accounting (and the quota, which
// bounds *net* allocation).
func (t *T) Free(n int64) {
	if n <= 0 {
		return
	}
	rt := t.rt
	t.checkPoison()
	rt.trace(t.w, rtrace.EvFree, t.tid, n, 0)
	rt.pol.Credit(t.w, n)
	t.job.charge(-n)
}

// forkDummies forks a binary tree with n dummy leaves and joins it — the
// same shape policy.SplitDummies gives the simulator's transformation, so
// thread and dummy counts agree between the simulator and the runtime.
func (t *T) forkDummies(n int64) {
	if n == 1 {
		h := t.fork(func(c *T) {
			c.dummyPoint()
		}, true)
		t.Join(h)
		return
	}
	l, r := policy.SplitDummies(n)
	h := t.Fork(func(c *T) {
		c.forkDummies(l)
		c.forkDummies(r)
	})
	t.Join(h)
}

// dummyPoint is a dummy leaf's one scheduling event (§3.3). The dummy is
// always goroutine-backed (Join never claims a dummy inline), so the
// give-up mark is set inline as agent of the dispatching worker and
// consumed by that worker's Terminate right after the dummy's evDone.
func (t *T) dummyPoint() {
	t.checkPoison()
	t.rt.trace(t.w, rtrace.EvDummy, t.tid, 0, 0)
	t.rt.pol.Dummy(t.w)
}
