package policy_test

import (
	"math/rand"
	"sync"
	"testing"

	"dfdeques/internal/om"
	"dfdeques/internal/policy"
)

func TestQuotaChargeCredit(t *testing.T) {
	q := policy.NewQuota(2)
	const k = 100

	// All quotas start exhausted until the first Reset.
	if q.Charge(0, 1, k) {
		t.Error("unreset quota accepted a charge")
	}
	q.Reset(0, k)
	if !q.Charge(0, 60, k) || !q.Charge(0, 40, k) {
		t.Error("charges within quota vetoed")
	}
	if q.Charge(0, 1, k) {
		t.Error("exhausted quota accepted a charge")
	}
	// Frees restore quota (net allocation) but clamp at k.
	q.Credit(0, 30, k)
	if got := q.Remaining(0); got != 30 {
		t.Errorf("remaining = %d, want 30", got)
	}
	q.Credit(0, 1000, k)
	if got := q.Remaining(0); got != k {
		t.Errorf("credit did not clamp: remaining = %d, want %d", got, k)
	}
	// Worker 1 is independent of worker 0.
	if q.Charge(1, 1, k) {
		t.Error("worker 1 shares worker 0's quota")
	}
	// k = 0 disables the quota entirely.
	if !q.Charge(0, 1<<40, 0) {
		t.Error("k=0 vetoed a charge")
	}
}

func TestDummyArithmetic(t *testing.T) {
	for _, tc := range []struct{ n, k, want int64 }{
		{1000, 100, 10}, {1001, 100, 11}, {100, 100, 1}, {1, 100, 1}, {999, 1000, 1},
	} {
		if got := policy.DummyLeaves(tc.n, tc.k); got != tc.want {
			t.Errorf("DummyLeaves(%d, %d) = %d, want %d", tc.n, tc.k, got, tc.want)
		}
	}
	// Splitting preserves the leaf count, both halves stay positive, and
	// repeated splitting terminates at single leaves.
	for n := int64(2); n < 200; n++ {
		l, r := policy.SplitDummies(n)
		if l+r != n || l < 1 || r < 1 {
			t.Fatalf("SplitDummies(%d) = (%d, %d)", n, l, r)
		}
	}
}

func TestPrioQueueOrders(t *testing.T) {
	q := policy.NewPrioQueue(func(a, b int) bool { return a < b })
	for _, v := range []int{5, 1, 4, 1, 3, 9, 2} {
		q.Insert(v)
	}
	prev := -1
	for q.Len() > 0 {
		v, ok := q.Take()
		if !ok {
			t.Fatal("Take failed on non-empty queue")
		}
		if v < prev {
			t.Fatalf("out of order: %d after %d", v, prev)
		}
		prev = v
	}
	if _, ok := q.Take(); ok {
		t.Error("Take succeeded on empty queue")
	}
}

func TestFIFOQueueOrderAndCompaction(t *testing.T) {
	var q policy.FIFOQueue[int]
	// Enough traffic to trigger the consumed-prefix compaction (> 1024).
	next := 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 100; i++ {
			q.Push(round*100 + i)
		}
		for i := 0; i < 100; i++ {
			v, ok := q.Pop()
			if !ok || v != next {
				t.Fatalf("pop = (%d, %v), want %d", v, ok, next)
			}
			next++
		}
	}
	if q.Len() != 0 {
		t.Errorf("len = %d after draining", q.Len())
	}
}

// TestWSPoolConcurrent hammers a WSPool from p goroutines, each acting as
// its owner — pushing and popping its own deque — while also stealing from
// random victims. Conservation: every pushed token is consumed exactly
// once (checked by summing), and the pool ends empty.
func TestWSPoolConcurrent(t *testing.T) {
	const (
		workers = 8
		pushes  = 2000
	)
	pl := policy.NewWSPool[int](workers)
	var consumed sync.Map // token → true
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			take := func(x int) {
				if _, dup := consumed.LoadOrStore(x, true); dup {
					t.Errorf("token %d consumed twice", x)
				}
			}
			for i := 0; i < pushes; i++ {
				pl.Push(w, w*pushes+i)
				if rng.Intn(2) == 0 {
					if x, ok := pl.Pop(w); ok {
						take(x)
					}
				}
				if v := rng.Intn(workers); v != w {
					if x, ok := pl.StealFrom(w, v); ok {
						take(x)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Drain what is left.
	rest := 0
	for w := 0; w < workers; w++ {
		for {
			x, ok := pl.Pop(w)
			if !ok {
				break
			}
			rest++
			if _, dup := consumed.LoadOrStore(x, true); dup {
				t.Errorf("token %d consumed twice", x)
			}
		}
	}
	if pl.HasWork() {
		t.Error("pool reports work after draining")
	}
	n := 0
	consumed.Range(func(_, _ any) bool { n++; return true })
	if n != workers*pushes {
		t.Errorf("consumed %d tokens, want %d", n, workers*pushes)
	}
	steals, _, local, lockOps := pl.Stats()
	if steals+local != int64(n) {
		t.Errorf("steals(%d)+local(%d) != consumed(%d)", steals, local, n)
	}
	// The lock-free protocol's contract: owner pushes/pops and steals
	// acquire no mutex at all. lockOps counts only injectMu, which this
	// test never touches — so across 16000 pushes, thousands of steals,
	// and the contested drain it must stay exactly zero.
	if lockOps != 0 {
		t.Errorf("lockOps = %d, want 0 (steal and owner paths are mutex-free)", lockOps)
	}
}

// TestDFDPolicyInvariants drives the DFD policy serially with om.Record
// priorities — the real 1DF oracle — through a randomized fork/terminate
// workload across 4 virtual workers, checking the Lemma 3.1 ordering
// invariants at every step. This is the policy-layer version of the
// simulator's -check mode, without an engine in the loop.
func TestDFDPolicyInvariants(t *testing.T) {
	const (
		workers = 4
		steps   = 4000
	)
	rng := rand.New(rand.NewSource(99))
	var l om.List
	d := policy.NewDFD(workers, 0, om.Less, 1)

	root := l.PushFront()
	d.Seed(root)

	curr := make([]*om.Record, workers)
	running := func(w int) (*om.Record, bool) { return curr[w], curr[w] != nil }

	live := 1 // records in play (pool + running)
	for i := 0; i < steps && live > 0; i++ {
		w := rng.Intn(workers)
		if curr[w] == nil {
			if x, ok := d.Acquire(w); ok {
				curr[w] = x
			}
		} else if rng.Intn(3) > 0 && live < 64 {
			// Fork: the child receives the priority immediately higher
			// than its parent (it precedes the parent in the 1DF order)
			// and goes on w's deque while the parent keeps running.
			child := l.InsertBefore(curr[w])
			d.Fork(w, child)
			live++
		} else {
			dead := curr[w]
			next, ok := d.Terminate(w, nil, false)
			if ok {
				curr[w] = next
			} else {
				curr[w] = nil
			}
			l.Delete(dead)
			live--
		}
		if err := d.CheckInvariants(running); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}

	// Drain: terminate everything that remains.
	for guard := 0; live > 0; guard++ {
		if guard > 100000 {
			t.Fatal("drain did not converge")
		}
		for w := 0; w < workers; w++ {
			if curr[w] == nil {
				if x, ok := d.Acquire(w); ok {
					curr[w] = x
				}
				continue
			}
			dead := curr[w]
			next, ok := d.Terminate(w, nil, false)
			if ok {
				curr[w] = next
			} else {
				curr[w] = nil
			}
			l.Delete(dead)
			live--
		}
	}
	if d.HasWork() {
		t.Error("pool reports work after drain")
	}
	st := d.Stats()
	if st.Steals < 1 {
		t.Errorf("steals = %d, want ≥ 1 (the root acquisition)", st.Steals)
	}
	if st.MaxDeques < 1 {
		t.Errorf("max deques = %d", st.MaxDeques)
	}
}
