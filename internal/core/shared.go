package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"dfdeques/internal/deque"
	"dfdeques/internal/rtrace"
)

// SharedPool is the concurrency-safe counterpart of Pool: the same
// DFDeques ready pool (the ordered deque list R plus the owner/thief
// protocol of §3.2–3.3), but synchronized fine-grained instead of behind
// one caller-supplied scheduler lock.
//
// Geometry. SharedPool serves the runtime's work-first engine, where a
// fork pushes the never-run child and the parent keeps running. Each
// deque therefore holds its highest-priority thread at the BOTTOM (the
// steal end) and its lowest at the top, and a running thread has lower
// 1DF priority than everything in its own deque — the mirror image of
// Pool, whose serial simulator pushes the parent and runs the child. R is
// still ordered left to right by decreasing priority, and a thief's new
// deque goes immediately LEFT of its victim: the stolen bottom x precedes
// every thread left in the victim, x's future descendants sit just before
// x in the 1DF order, and everything in deques left of the victim
// precedes x (DESIGN.md, "Work-first execution", states the argument).
//
// Synchronization design (see DESIGN.md §5, "beyond the paper"):
//
//   - Every item operation on a deque is NONBLOCKING: the ABP-style
//     tag/bottom protocol in internal/deque gives the owner a lock-free
//     PushTop/PopTop and thieves a single-CAS PopBottom, with a
//     generation tag defeating ABA across the freelist recycling below.
//     There is no per-deque mutex at all — a preempted thief can never
//     wedge an owner, and owners never block thieves. (This replaces the
//     PR 5 biased protocol, whose Share bit degraded every owner op to a
//     plain Mu the moment a thief touched the deque.)
//   - R's spine (membership and left-to-right order) is guarded by a
//     CountedLock, an RWMutex that counts its exclusive holds. Only
//     operations that change membership take it exclusively: Steal
//     (pop-bottom + insert-left must be one linearization point, or
//     two thieves hitting one victim could insert their deques in inverted
//     priority order), deque deletion, and the woken-thread insert. The
//     read side covers cheap observations — including Steal's screening
//     phase, which rejects an empty victim via SizeHint without ever
//     taking the spine exclusively. The spine serializes thieves against
//     each other and against membership changes, never against an owner's
//     push/pop: the steady-state owner hot path acquires zero mutexes.
//   - A pool-wide atomic counter of ready threads makes HasWork lock-free,
//     so idle workers can poll for work without touching any lock.
//   - Deques deleted from R are Reset onto a freelist (guarded by the
//     spine lock, which already covers every membership change) and reused
//     by the next steal or wake, so the steady-state steal cycle
//     allocates nothing. A deque only leaves R under the exclusive spine
//     lock and only after its owner pointer is cleared; a thief that read
//     the deque's state before the recycle is defeated by the tag bump in
//     Reset, not by blocking it out.
//
// Trace linearization without locks: pushes are recorded BEFORE the item
// is published (a thief can only steal x after the owner's top-store
// makes it visible, which is after the record, so EvPush always carries
// an earlier global sequence number than the EvSteal of the same thread);
// pops and steals are recorded AFTER the claim succeeds. Steal and
// membership events are still recorded under the exclusive spine, which
// linearizes R's structural history exactly as before.
//
// Lock order, here and in internal/grt: R spine → (the runtime's
// priority-list lock, taken inside the less callback). All pool methods
// are safe for concurrent use; methods taking a worker index w must only
// be called by worker w.
type SharedPool[T comparable] struct {
	p    int
	less func(a, b T) bool

	listMu CountedLock
	r      deque.List[T]
	own    []atomic.Pointer[deque.Deque[T]] // own[w] written only by worker w

	// rngs[w] is worker w's private victim-selection stream, derived
	// deterministically from (run seed, w) by WorkerSeed: same-seed runs
	// draw the same victim sequences per worker, and the steal path never
	// serializes on a shared generator. Seeded lazily at w's first steal
	// (each slot is touched only by its worker): math/rand's seeding fills
	// a 607-word feedback register, and paying that p times up front
	// dominates short runs' construction cost.
	rngs []*rand.Rand
	seed int64

	// free is the deque freelist, guarded by the spine lock: deques only
	// leave R under it, and only then may they be recycled.
	free []*deque.Deque[T]

	// Tracing (nil probe: disabled). deqID is the next deque id, advanced
	// under the spine lock where every deque is created.
	probe rtrace.Probe
	tidOf func(T) int64
	deqID int64

	ready  atomic.Int64 // stealable threads across all deques in R
	maxR   atomic.Int64
	steals atomic.Int64
	failed atomic.Int64
	local  atomic.Int64
}

// NewSharedPool builds a concurrent pool for p workers; the parameters
// mirror NewPool. less may acquire the caller's priority lock (it is
// invoked with the spine lock held, never with any deque lock — there are
// none). seed determines every worker's private victim-selection stream.
func NewSharedPool[T comparable](p int, less func(a, b T) bool, seed int64) *SharedPool[T] {
	if p < 1 {
		panic("core: pool needs at least one worker")
	}
	return &SharedPool[T]{
		p:    p,
		less: less,
		own:  make([]atomic.Pointer[deque.Deque[T]], p),
		rngs: make([]*rand.Rand, p),
		seed: seed,
	}
}

// rng returns worker w's private victim-selection stream, seeding it on
// first use. Only worker w may call it.
func (pl *SharedPool[T]) rng(w int) *rand.Rand {
	r := pl.rngs[w]
	if r == nil {
		r = rand.New(rand.NewSource(WorkerSeed(pl.seed, w)))
		pl.rngs[w] = r
	}
	return r
}

// WorkerSeed derives worker w's private RNG seed from the run seed with a
// splitmix64-style mixer, so per-worker streams are decorrelated while the
// whole run stays a pure function of one seed.
func WorkerSeed(seed int64, w int) int64 {
	z := uint64(seed) + uint64(w+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Instrument attaches a trace probe; tid extracts a thread's stable id for
// the event payloads. Call before the pool is shared (before Seed).
func (pl *SharedPool[T]) Instrument(p rtrace.Probe, tid func(T) int64) {
	pl.probe = p
	pl.tidOf = tid
}

// trace records one event when a probe is attached. Structural events are
// recorded while the spine lock is held, so their global sequence numbers
// linearize R's history; item events follow the record-before-publish /
// record-after-claim discipline described on SharedPool (see
// internal/rtrace).
func (pl *SharedPool[T]) trace(w int, k rtrace.Kind, a, b, c int64) {
	if rtrace.Enabled && pl.probe != nil {
		pl.probe.Event(w, k, a, b, c)
	}
}

// MeasureLocks times the spine lock's exclusive holds (see LockStats).
func (pl *SharedPool[T]) MeasureLocks() { pl.listMu.Time() }

// takeFree returns a reusable deque with a fresh ID. The caller must hold
// the spine lock exclusively and insert the deque into R before releasing
// it.
func (pl *SharedPool[T]) takeFree() *deque.Deque[T] {
	var d *deque.Deque[T]
	if n := len(pl.free); n > 0 {
		d = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
	} else {
		d = deque.NewDeque[T]()
	}
	pl.deqID++
	d.ID = pl.deqID
	return d
}

// retire deletes d from R and recycles it. The caller must hold the spine
// lock exclusively, and d must be empty and its own pointer already
// cleared. A thief that loaded d's word before the recycle can still
// attempt its CAS afterwards — the tag bump inside Reset makes that CAS
// fail, so recycling needs no blocking handshake with in-flight thieves.
func (pl *SharedPool[T]) retire(w int, d *deque.Deque[T]) {
	pl.r.Delete(d)
	pl.trace(w, rtrace.EvDequeRetire, d.ID, 0, 0)
	d.Reset()
	pl.free = append(pl.free, d)
}

// Seed places the root thread into a fresh, unowned deque at the left end
// of R, ready to be stolen by the first idle worker.
func (pl *SharedPool[T]) Seed(root T) {
	pl.listMu.Lock()
	d := pl.takeFree()
	pl.r.Insert(0, d)
	pl.trace(-1, rtrace.EvDequeCreate, d.ID, -1, 0)
	if pl.tidOf != nil {
		pl.trace(-1, rtrace.EvPush, pl.tidOf(root), d.ID, 0)
	}
	d.PushTop(root)
	pl.noteR()
	pl.listMu.Unlock()
	pl.ready.Add(1)
}

// PushOwn pushes x onto worker w's deque top (the fork and preemption
// path). Entirely nonblocking: a single owner-side PushTop, no mutex in
// any state. The worker must own a deque. The trace is recorded before
// the push publishes x — a thief can only steal x afterwards, so the
// steal's event sequences after this one.
func (pl *SharedPool[T]) PushOwn(w int, x T) {
	d := pl.own[w].Load()
	if d == nil {
		panic("core: PushOwn without an owned deque")
	}
	if pl.tidOf != nil {
		pl.trace(w, rtrace.EvPush, pl.tidOf(x), d.ID, 0)
	}
	d.PushTop(x)
	pl.ready.Add(1)
}

// PopOwn pops the top of w's deque. The non-empty case is a nonblocking
// owner-side PopTop (one CAS only when racing a thief for the last item);
// when the deque turns out empty it is deleted from R under the spine
// lock (only the owner adds items, and with the spine held no thief can
// claim from it, so emptiness is stable once observed) and
// ok is false — the worker must steal next.
func (pl *SharedPool[T]) PopOwn(w int) (x T, ok bool) {
	d := pl.own[w].Load()
	if d == nil {
		return x, false
	}
	x, ok = d.PopTop()
	if ok {
		if pl.tidOf != nil {
			pl.trace(w, rtrace.EvPop, pl.tidOf(x), d.ID, 0)
		}
		pl.ready.Add(-1)
		pl.local.Add(1)
		return x, true
	}
	// Empty: drop ownership and retire the deque. The own pointer is
	// cleared before the spine unlocks so no reference to the recycled
	// deque survives the critical section.
	pl.listMu.Lock()
	pl.own[w].Store(nil)
	if d.InList() { // a thief may have deleted it after draining it
		pl.retire(w, d)
	}
	pl.listMu.Unlock()
	return x, false
}

// PopOwnIf pops the top of w's deque only if it is exactly want,
// reporting whether it did. This is the runtime's inline-join
// claim: the parent may run its forked child in place of parking only
// when that child is still the top of the parent's own deque — untouched
// by thieves and undisplaced by woken threads — and the check and the pop
// share the deque's one linearization point (PopTopIf delegates the
// contested last-item case to PopTop's conflict CAS, so a racing
// bottom-steal of a single-item deque can never double-claim the thread).
// A miss leaves the pool untouched: unlike PopOwn, an empty deque is NOT
// retired here, because the caller is still running and will push or pop
// again.
func (pl *SharedPool[T]) PopOwnIf(w int, want T) bool {
	d := pl.own[w].Load()
	if d == nil {
		return false
	}
	ok := d.PopTopIf(want)
	if ok {
		if pl.tidOf != nil {
			pl.trace(w, rtrace.EvPop, pl.tidOf(want), d.ID, 0)
		}
		pl.ready.Add(-1)
		pl.local.Add(1)
	}
	return ok
}

// GiveUp releases ownership of w's deque without popping (the
// quota-exhaustion and dummy-thread paths): the deque stays in R, unowned
// and stealable. An empty deque is deleted instead. The emptiness read is
// stable under the exclusive spine lock: thieves pop bottoms only inside
// Steal's spine-held section, and the one goroutine that pushes without
// the spine — the owner — is the caller itself.
func (pl *SharedPool[T]) GiveUp(w int) {
	d := pl.own[w].Load()
	if d == nil {
		return
	}
	pl.listMu.Lock()
	pl.own[w].Store(nil)
	if d.Empty() {
		if d.InList() {
			pl.retire(w, d)
		}
	} else {
		d.Owner = -1
		pl.trace(w, rtrace.EvDequeRelease, d.ID, 0, 0)
	}
	pl.listMu.Unlock()
}

// Steal performs one steal attempt for worker w: pick a uniformly random
// deque among the leftmost p in R, pop its bottom thread, and become
// owner of a new deque placed immediately to the victim's left (see the
// geometry note on SharedPool).
//
// The attempt runs in two phases. A screening phase under the read lock
// checks the pick exists and its SizeHint is nonzero; the common failed
// attempt — an out-of-range pick or a provably empty victim — costs no
// exclusive spine acquisition at all, so a storm of unlucky thieves never
// serializes the owners' membership changes. Only a promising pick takes
// the spine exclusively and re-validates: pop-bottom and insert-left
// form the steal's single linearization point, which is what keeps Lemma
// 3.1's left-to-right order intact when two thieves race on one victim.
// The pop itself is the lock-free bottom-word CAS — the victim's owner is
// never blocked, not even for the duration of this critical section, and
// can race the thief for the last item (the deque's conflict arbitration
// decides; a CAS loss here is just a failed attempt).
//
// ok is false if the attempt failed (nonexistent or empty victim, or the
// CAS lost a race). The worker must not own a deque.
func (pl *SharedPool[T]) Steal(w int) (x T, ok bool) {
	if pl.own[w].Load() != nil {
		panic("core: Steal while owning a deque")
	}
	c := pl.rng(w).Intn(pl.p)
	pl.listMu.RLock()
	promising := c < pl.r.Len() && pl.r.Kth(c).SizeHint() > 0
	pl.listMu.RUnlock()
	if !promising {
		pl.trace(w, rtrace.EvStealAttempt, -1, 0, 0)
		pl.failed.Add(1)
		return x, false
	}
	pl.listMu.Lock()
	if c >= pl.r.Len() { // R shrank between the phases
		pl.trace(w, rtrace.EvStealAttempt, -1, 0, 0)
		pl.listMu.Unlock()
		pl.failed.Add(1)
		return x, false
	}
	victim := pl.r.Kth(c)
	pl.trace(w, rtrace.EvStealAttempt, victim.ID, int64(c), 0)
	x, ok = victim.PopBottom()
	if !ok {
		pl.listMu.Unlock()
		pl.failed.Add(1)
		return x, false
	}
	pl.ready.Add(-1)
	nd := pl.takeFree()
	pl.r.Insert(victim.Pos(), nd)
	nd.Owner = w
	if pl.tidOf != nil {
		pl.trace(w, rtrace.EvSteal, pl.tidOf(x), victim.ID, nd.ID)
	}
	// An abandoned victim drained by this steal is retired now. With the
	// spine held no other thief can touch it, and Owner == -1 means no
	// owner-side op can be in flight, so the emptiness read is stable.
	if victim.Owner == -1 && victim.Empty() {
		pl.retire(w, victim)
	}
	pl.noteR()
	pl.own[w].Store(nd)
	pl.listMu.Unlock()
	pl.steals.Add(1)
	return x, true
}

// PushWoken places a thread woken by a blocking synchronization into a
// new deque at its priority position in R (§5's extension beyond the
// nested-parallel model), on behalf of the waking worker w: left of the
// first deque whose highest-priority thread — its bottom — x precedes. It
// scans R under the spine lock with validated racy PeekBottoms: each
// observed bottom was that deque's bottom at some instant during the
// scan, which is the strongest claim any priority placement can make
// while owners keep running — the paper's R order is itself only
// instantaneous. A peek that cannot stabilize is skipped, and less
// reports false for a thread that completed since its peek, so both
// uncertainties bias the insert rightward, the safe direction for the
// space bound.
func (pl *SharedPool[T]) PushWoken(w int, x T) {
	pl.listMu.Lock()
	insertAt := pl.r.Len()
	for i := 0; i < pl.r.Len(); i++ {
		bottom, ok := pl.r.Kth(i).PeekBottom()
		if ok && pl.less(x, bottom) {
			insertAt = i
			break
		}
	}
	nd := pl.takeFree()
	var after int64 = -1
	if insertAt > 0 {
		after = pl.r.Kth(insertAt - 1).ID
	}
	pl.r.Insert(insertAt, nd)
	pl.trace(w, rtrace.EvDequeCreate, nd.ID, after, 1)
	if pl.tidOf != nil {
		pl.trace(w, rtrace.EvPush, pl.tidOf(x), nd.ID, 0)
	}
	nd.PushTop(x)
	pl.noteR()
	pl.listMu.Unlock()
	pl.ready.Add(1)
}

// HasWork reports whether any deque in R holds a stealable thread. It is
// a single atomic load — idle workers poll it without taking any lock.
func (pl *SharedPool[T]) HasWork() bool { return pl.ready.Load() > 0 }

// Owns reports whether worker w currently owns a deque.
func (pl *SharedPool[T]) Owns(w int) bool { return pl.own[w].Load() != nil }

// Deques returns the current number of deques in R.
func (pl *SharedPool[T]) Deques() int {
	pl.listMu.RLock()
	defer pl.listMu.RUnlock()
	return pl.r.Len()
}

// MaxDeques returns the high-water mark of len(R).
func (pl *SharedPool[T]) MaxDeques() int { return int(pl.maxR.Load()) }

// Stats returns (successful steals, failed steal attempts, local
// dispatches).
func (pl *SharedPool[T]) Stats() (steals, failed, local int64) {
	return pl.steals.Load(), pl.failed.Load(), pl.local.Load()
}

// LockStats returns the exclusive spine-lock acquisitions and, under
// MeasureLocks, their total hold time in nanoseconds.
func (pl *SharedPool[T]) LockStats() (ops, ns int64) { return pl.listMu.Stats() }

// noteR records the R-length high-water mark. Must hold the spine lock.
func (pl *SharedPool[T]) noteR() {
	n := int64(pl.r.Len())
	for {
		old := pl.maxR.Load()
		if n <= old || pl.maxR.CompareAndSwap(old, n) {
			return
		}
	}
}

// CheckInvariants verifies the Lemma 3.1 ordering over the pool's deques
// in the mirrored geometry (see SharedPool): every deque is sorted by
// decreasing priority from bottom to top, R is ordered left to right
// (each deque's top precedes the next non-empty deque's bottom), and a
// running thread has lower priority than its own deque's top. curr gives
// each worker's currently executing thread (ok=false when idle).
//
// The spine lock freezes R's membership and blocks all thieves, and each
// deque's contents are read through Items' consistent-snapshot loop — but
// with no per-deque mutex there is nothing left that can freeze a running
// OWNER. The check is therefore exact when owners are quiescent or
// push-only (a pushed child ranks below its deque's previous top but
// above everything in deques to the right, so a concurrent push keeps the
// order the scan reads); concurrent owner POPS can yield transient false
// positives, so call it from tests and quiescent moments.
func (pl *SharedPool[T]) CheckInvariants(curr func(w int) (T, bool)) error {
	pl.listMu.Lock()
	defer pl.listMu.Unlock()
	var havePrev bool
	var prevTop T
	for i := 0; i < pl.r.Len(); i++ {
		d := pl.r.Kth(i)
		items := d.Items() // bottom..top
		if len(items) == 0 {
			// Every operation deletes a deque it empties unless the owner
			// keeps it; an empty unowned deque would be unstealable dead
			// weight in R.
			if d.Owner == -1 {
				return fmt.Errorf("core: empty deque %d in R is unowned", i)
			}
			continue
		}
		for j := 1; j < len(items); j++ {
			if !pl.less(items[j-1], items[j]) {
				return fmt.Errorf("core: lemma 3.1(1): deque %d unsorted at %d", i, j)
			}
		}
		if havePrev && !pl.less(prevTop, items[0]) {
			return fmt.Errorf("core: lemma 3.1(3): deque %d out of order", i)
		}
		prevTop, havePrev = items[len(items)-1], true
	}
	for w := 0; w < pl.p; w++ {
		// Skip a deque already deleted from R (a worker between its
		// empty-pop delete and clearing its own pointer): it no longer
		// participates in R's ordering.
		d := pl.own[w].Load()
		if d == nil || !d.InList() {
			continue
		}
		x, running := curr(w)
		if !running {
			continue
		}
		if top, ok := d.PeekTop(); ok && !pl.less(top, x) {
			return fmt.Errorf("core: lemma 3.1(2): worker %d runs a thread above its deque top", w)
		}
	}
	return nil
}
