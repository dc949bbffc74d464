// Package core implements the heart of the paper's contribution — the
// DFDeques ready-thread pool (§3.2–3.3) — as an engine-independent data
// structure: the globally ordered list R of ready deques together with the
// owner/thief operations of algorithm DFDeques.
//
// It holds the two R implementations, one per engine:
//
//   - Pool, the serial simulator's: the machine simulator's DFDeques
//     scheduler (internal/sched) drives one Pool — or one per processor
//     group under the §7 cluster variant — using BeginRound with
//     StealFrom or Migrate for the §4.1 per-timestep steal arbitration
//     (at most one successful steal per deque per round) and its
//     ablation switches;
//   - SharedPool, the concurrent runtime's (internal/policy), with
//     fine-grained synchronization.
//
// They stay separate because their geometry differs as well as their
// synchronization: the simulator runs the child at a fork, so a Pool
// deque holds its highest-priority thread at the top and a thief's deque
// goes right of its victim; the runtime is work-first, so a SharedPool
// deque holds it at the bottom and a thief's deque goes left. A shared
// core would have to branch on its caller. Tests drive both directly to
// property-check the Lemma 3.1 ordering invariants without a machine in
// the loop.
package core

import (
	"fmt"

	"dfdeques/internal/deque"
)

// Pool is the DFDeques ready pool for p workers. It is NOT safe for
// concurrent use; callers serialize access (the simulator is one
// goroutine).
type Pool[T comparable] struct {
	p    int
	r    deque.List[T]
	own  []*deque.Deque[T]
	less func(a, b T) bool // 1DF priority: less = higher priority

	steals    int64
	failed    int64
	localDisp int64
	maxR      int

	// stolen arbitrates steals within one timestep of the simulator's cost
	// model (§4.1): at most one steal per deque per round succeeds.
	stolen map[*deque.Deque[T]]bool
}

// NewPool builds a pool for p workers. less reports whether a has higher
// 1DF priority than b; it is used to place threads woken by
// synchronization (§5's extension) and by CheckInvariants.
func NewPool[T comparable](p int, less func(a, b T) bool) *Pool[T] {
	if p < 1 {
		panic("core: pool needs at least one worker")
	}
	return &Pool[T]{
		p:    p,
		own:  make([]*deque.Deque[T], p),
		less: less,
	}
}

// Workers returns the pool's worker count p: the width of the leftmost-p
// steal window.
func (pl *Pool[T]) Workers() int { return pl.p }

// Seed places the root thread into a fresh, unowned deque at the left end
// of R, ready to be stolen by the first idle worker.
func (pl *Pool[T]) Seed(root T) {
	d := deque.NewDeque[T]()
	pl.r.Insert(0, d)
	d.PushTop(root)
	pl.noteR()
}

// PushOwn pushes x onto worker w's deque top (the fork and preemption
// path). The worker must own a deque.
func (pl *Pool[T]) PushOwn(w int, x T) {
	d := pl.own[w]
	if d == nil {
		panic("core: PushOwn without an owned deque")
	}
	d.PushTop(x)
}

// PopOwn pops the top of w's deque. When the deque is empty it is deleted
// from R (the give-up-and-delete step of the scheduling loop) and ok is
// false — the worker must steal next.
func (pl *Pool[T]) PopOwn(w int) (x T, ok bool) {
	d := pl.own[w]
	if d == nil {
		return x, false
	}
	if x, ok = d.PopTop(); ok {
		pl.localDisp++
		return x, true
	}
	pl.r.Delete(d)
	pl.own[w] = nil
	return x, false
}

// GiveUp releases ownership of w's deque without popping (the
// quota-exhaustion path): the deque stays in R, unowned and stealable. An
// empty deque is deleted instead.
func (pl *Pool[T]) GiveUp(w int) {
	d := pl.own[w]
	if d == nil {
		return
	}
	if d.Empty() {
		pl.r.Delete(d)
	} else {
		d.Owner = -1
	}
	pl.own[w] = nil
}

// BeginRound starts a new steal round of the simulator's cost model:
// every deque becomes stealable again (§4.1 allows at most one successful
// steal per deque per timestep, arbitrated by StealFrom and Migrate).
func (pl *Pool[T]) BeginRound() {
	if pl.stolen == nil {
		pl.stolen = make(map[*deque.Deque[T]]bool, pl.p)
	}
	clear(pl.stolen)
}

// StealFrom makes one steal attempt for worker w: the caller names the
// victim as an index c from the left end of R (the leftmost-p sample,
// with the window choice — and the randomness — in the caller's hands),
// and at most one steal per deque succeeds between BeginRound calls. The
// thief pops the victim's bottom and owns a new deque placed immediately
// to the victim's right. fromTop is the steal-from-top ablation: the
// thief takes the victim's newest thread instead, and its new deque goes
// to the victim's left to keep R roughly ordered. ok is false if the
// attempt failed (nonexistent, empty or already-stolen victim). The
// worker must not own a deque.
func (pl *Pool[T]) StealFrom(w, c int, fromTop bool) (x T, ok bool) {
	return pl.steal(w, pl, c, fromTop)
}

// Migrate is StealFrom across pools, for schedulers that keep one R per
// processor group: worker w of pl steals the bottom of deque c of from's
// R, under from's per-round arbitration, and owns a new deque at the
// left end of pl's R — the migrated thread is the coarsest,
// highest-priority work the thief's group now holds.
func (pl *Pool[T]) Migrate(w int, from *Pool[T], c int) (x T, ok bool) {
	return pl.steal(w, from, c, false)
}

// steal is the one steal path: worker w of pl takes a thread from deque c
// of src's R and owns a new deque in pl's R.
func (pl *Pool[T]) steal(w int, src *Pool[T], c int, fromTop bool) (x T, ok bool) {
	if pl.own[w] != nil {
		panic("core: steal while owning a deque")
	}
	if c >= src.r.Len() {
		pl.failed++
		return x, false
	}
	victim := src.r.Kth(c)
	if victim.Empty() || src.stolen[victim] {
		pl.failed++
		return x, false
	}
	if src.stolen == nil {
		src.stolen = make(map[*deque.Deque[T]]bool, src.p)
	}
	src.stolen[victim] = true
	var at int
	switch {
	case src != pl:
		x, _ = victim.PopBottom()
		at = 0
	case fromTop:
		x, _ = victim.PopTop()
		at = victim.Pos()
	default:
		x, _ = victim.PopBottom()
		at = victim.Pos() + 1
	}
	nd := deque.NewDeque[T]()
	nd.Owner = w
	pl.r.Insert(at, nd)
	pl.own[w] = nd
	if victim.Empty() && victim.Owner == -1 {
		src.r.Delete(victim)
	}
	pl.noteR()
	pl.steals++
	return x, true
}

// PushWoken places a thread woken by a blocking synchronization into a new
// deque at its priority position in R (§5's extension beyond the
// nested-parallel model).
func (pl *Pool[T]) PushWoken(x T) {
	insertAt := pl.r.Len()
	for i := 0; i < pl.r.Len(); i++ {
		top, ok := pl.r.Kth(i).PeekTop()
		if !ok {
			continue
		}
		if pl.less(x, top) {
			insertAt = i
			break
		}
	}
	nd := deque.NewDeque[T]()
	pl.r.Insert(insertAt, nd)
	nd.PushTop(x)
	pl.noteR()
}

// HasWork reports whether any deque in R holds a stealable thread.
func (pl *Pool[T]) HasWork() bool {
	found := false
	pl.r.Walk(func(d *deque.Deque[T]) bool {
		if !d.Empty() {
			found = true
			return false
		}
		return true
	})
	return found
}

// Owns reports whether worker w currently owns a deque.
func (pl *Pool[T]) Owns(w int) bool { return pl.own[w] != nil }

// Deques returns the current number of deques in R.
func (pl *Pool[T]) Deques() int { return pl.r.Len() }

// MaxDeques returns the high-water mark of len(R).
func (pl *Pool[T]) MaxDeques() int { return pl.maxR }

// Stats returns (successful steals, failed steal attempts, local
// dispatches).
func (pl *Pool[T]) Stats() (steals, failed, local int64) {
	return pl.steals, pl.failed, pl.localDisp
}

func (pl *Pool[T]) noteR() {
	if n := pl.r.Len(); n > pl.maxR {
		pl.maxR = n
	}
}

// CheckInvariants verifies the Lemma 3.1 ordering over the pool's deques:
// CheckDeques' per-deque clauses (1) and (2), and clause (3) — deques are
// ordered left to right by decreasing priority.
func (pl *Pool[T]) CheckInvariants(curr func(w int) (T, bool)) error {
	if err := pl.CheckDeques(curr); err != nil {
		return err
	}
	var havePrev bool
	var prevBottom T
	for i := 0; i < pl.r.Len(); i++ {
		d := pl.r.Kth(i)
		top, ok := d.PeekTop()
		if !ok {
			continue
		}
		if havePrev && !pl.less(prevBottom, top) {
			return fmt.Errorf("core: lemma 3.1(3): deque %d out of order", i)
		}
		prevBottom, _ = d.PeekBottom()
		havePrev = true
	}
	return nil
}

// CheckDeques verifies the clauses of Lemma 3.1 that hold deque by deque:
// (1) every deque is priority-sorted top to bottom, and (2) a worker's
// executing thread has higher priority than its deque's top; and that no
// empty deque is left unowned. curr gives each worker's currently
// executing thread (ok=false when idle). A pool that receives Migrate's
// deques at its left end keeps these clauses but not clause (3).
func (pl *Pool[T]) CheckDeques(curr func(w int) (T, bool)) error {
	for i := 0; i < pl.r.Len(); i++ {
		d := pl.r.Kth(i)
		items := d.Items()
		for j := 1; j < len(items); j++ {
			if !pl.less(items[j], items[j-1]) {
				return fmt.Errorf("core: lemma 3.1(1): deque %d unsorted at %d", i, j)
			}
		}
		// Every operation deletes a deque it empties unless the owner
		// keeps it; an empty unowned deque would be unstealable dead
		// weight in R.
		if len(items) == 0 && d.Owner == -1 {
			return fmt.Errorf("core: empty deque %d in R is unowned", i)
		}
	}
	for w := 0; w < pl.p; w++ {
		d := pl.own[w]
		if d == nil {
			continue
		}
		x, running := curr(w)
		if !running {
			continue
		}
		if top, ok := d.PeekTop(); ok && !pl.less(x, top) {
			return fmt.Errorf("core: lemma 3.1(2): worker %d below its deque top", w)
		}
	}
	return nil
}
