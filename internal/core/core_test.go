package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dfdeques/internal/om"
)

// intPool builds a pool over ints where smaller = higher priority, and
// the rng its test draws steal victims from.
func intPool(p int, seed int64) (*Pool[int], *rand.Rand) {
	return NewPool(p, func(a, b int) bool { return a < b }), rand.New(rand.NewSource(seed))
}

// steal makes one steal attempt for w in a fresh round, with the victim
// drawn uniformly from the leftmost-p window.
func steal(pl *Pool[int], rng *rand.Rand, w int) (int, bool) {
	pl.BeginRound()
	return pl.StealFrom(w, rng.Intn(pl.Workers()), false)
}

func TestSeedAndFirstSteal(t *testing.T) {
	pl, rng := intPool(4, 1)
	pl.Seed(10)
	if !pl.HasWork() {
		t.Fatal("seeded pool reports no work")
	}
	got := stealUntil(t, pl, rng, 0)
	if got != 10 {
		t.Fatalf("stole %d, want 10", got)
	}
	if !pl.Owns(0) {
		t.Fatal("stealer should own a deque")
	}
	if pl.HasWork() {
		t.Fatal("pool should be drained")
	}
}

// stealUntil retries until the random victim pick succeeds.
func stealUntil(t *testing.T, pl *Pool[int], rng *rand.Rand, w int) int {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if x, ok := steal(pl, rng, w); ok {
			return x
		}
	}
	t.Fatal("steal never succeeded")
	return 0
}

func TestPushPopOwnLIFO(t *testing.T) {
	pl, rng := intPool(2, 2)
	pl.Seed(1)
	stealUntil(t, pl, rng, 0)
	pl.PushOwn(0, 5)
	pl.PushOwn(0, 4) // higher priority pushed later (deeper fork)
	if x, ok := pl.PopOwn(0); !ok || x != 4 {
		t.Fatalf("PopOwn = %d,%v want 4", x, ok)
	}
	if x, ok := pl.PopOwn(0); !ok || x != 5 {
		t.Fatalf("PopOwn = %d,%v want 5", x, ok)
	}
	// Third pop: empty deque is deleted, worker deque-less.
	if _, ok := pl.PopOwn(0); ok {
		t.Fatal("PopOwn on empty should fail")
	}
	if pl.Owns(0) {
		t.Fatal("deque should have been deleted")
	}
	if pl.Deques() != 0 {
		t.Fatalf("R should be empty, has %d", pl.Deques())
	}
}

func TestGiveUpLeavesDequeStealable(t *testing.T) {
	pl, rng := intPool(2, 3)
	pl.Seed(1)
	stealUntil(t, pl, rng, 0)
	pl.PushOwn(0, 7)
	pl.GiveUp(0)
	if pl.Owns(0) {
		t.Fatal("GiveUp did not release ownership")
	}
	if !pl.HasWork() {
		t.Fatal("given-up deque should remain stealable")
	}
	// Worker 1 steals the abandoned thread; the emptied unowned deque is
	// deleted.
	got := stealUntil(t, pl, rng, 1)
	if got != 7 {
		t.Fatalf("stole %d, want 7", got)
	}
	if pl.Deques() != 1 { // only worker 1's new deque remains
		t.Fatalf("deques = %d, want 1", pl.Deques())
	}
}

func TestGiveUpEmptyDequeDeletes(t *testing.T) {
	pl, rng := intPool(2, 4)
	pl.Seed(1)
	stealUntil(t, pl, rng, 0)
	pl.GiveUp(0) // empty deque: must be deleted, not left in R
	if pl.Deques() != 0 {
		t.Fatalf("deques = %d, want 0", pl.Deques())
	}
}

func TestStealFromBottom(t *testing.T) {
	pl, rng := intPool(2, 5)
	pl.Seed(1)
	stealUntil(t, pl, rng, 0)
	pl.PushOwn(0, 3)
	pl.PushOwn(0, 2)
	// Worker 1 steals: must get the bottom (lowest-priority) thread, 3.
	got := stealUntil(t, pl, rng, 1)
	if got != 3 {
		t.Fatalf("thief got %d, want bottom thread 3", got)
	}
}

// TestMigrateAcrossPools pins the cross-pool steal of the cluster
// scheduler: the thief takes the victim's bottom, a drained unowned
// victim leaves its pool, the thief owns a fresh deque at the left end of
// its own pool, and the victim's pool arbitrates the round.
func TestMigrateAcrossPools(t *testing.T) {
	home, rng := intPool(2, 10)
	away, _ := intPool(2, 11)
	home.Seed(20)
	stealUntil(t, home, rng, 0)
	home.PushOwn(0, 21)
	home.GiveUp(0) // home's R: one unowned deque holding 21

	away.Seed(1)
	stealUntil(t, away, rng, 0)
	away.PushOwn(0, 3)
	away.PushOwn(0, 2) // owned by away's worker 0: bottom 3, top 2
	away.Seed(5)       // unowned single-thread deque, now leftmost

	away.BeginRound()
	x, ok := home.Migrate(1, away, 0)
	if !ok || x != 5 {
		t.Fatalf("Migrate = %d,%v want the bottom 5", x, ok)
	}
	if away.Deques() != 1 {
		t.Fatalf("away deques = %d, want 1: the drained unowned victim must be deleted", away.Deques())
	}
	if !home.Owns(1) || home.Deques() != 2 {
		t.Fatalf("home: owns=%v deques=%d, want a new owned deque", home.Owns(1), home.Deques())
	}
	if d := home.r.Kth(0); d != home.own[1] || !d.Empty() || d.Owner != 1 {
		t.Fatal("the thief's fresh deque must sit at home's left end")
	}

	// away's worker-0 deque is the victim now; one take per round.
	home.GiveUp(1)
	if x, ok := home.Migrate(1, away, 0); !ok || x != 3 {
		t.Fatalf("Migrate = %d,%v want the bottom 3", x, ok)
	}
	home.GiveUp(1)
	if _, ok := home.Migrate(1, away, 0); ok {
		t.Fatal("a second take from the same victim in one round must fail")
	}
	away.BeginRound()
	if x, ok := home.Migrate(1, away, 0); !ok || x != 2 {
		t.Fatalf("next round: Migrate = %d,%v want 2", x, ok)
	}
	if away.Deques() != 1 || !away.Owns(0) {
		t.Fatal("an owned victim stays in R when drained")
	}
}

func TestStealPanicsWhileOwning(t *testing.T) {
	pl, rng := intPool(2, 6)
	pl.Seed(1)
	stealUntil(t, pl, rng, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pl.StealFrom(0, 0, false)
}

func TestPushOwnWithoutDequePanics(t *testing.T) {
	pl, _ := intPool(2, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pl.PushOwn(0, 1)
}

func TestPushWokenOrdering(t *testing.T) {
	pl, rng := intPool(4, 8)
	pl.Seed(5)
	stealUntil(t, pl, rng, 0)
	pl.PushOwn(0, 6)
	pl.PushWoken(3) // higher priority than 6: must land left of it
	pl.PushWoken(9) // lower: lands at the right end
	if err := pl.CheckInvariants(func(w int) (int, bool) {
		if w == 0 {
			return 5, true
		}
		return 0, false
	}); err != nil {
		t.Fatal(err)
	}
	// Highest-priority stealable thread overall should be 3: verify a
	// leftmost-deque steal yields it.
	for i := 0; i < 1000; i++ {
		if x, ok := steal(pl, rng, 1); ok {
			if x != 3 && x != 6 && x != 9 {
				t.Fatalf("stole unexpected %d", x)
			}
			return
		}
	}
	t.Fatal("no steal succeeded")
}

func TestMaxDequesTracksHighWater(t *testing.T) {
	pl, rng := intPool(8, 9)
	pl.Seed(1)
	stealUntil(t, pl, rng, 0)
	for i := 2; i < 10; i++ {
		pl.PushOwn(0, i)
	}
	pl.GiveUp(0)
	for w := 1; w < 5; w++ {
		stealUntil(t, pl, rng, w)
	}
	if pl.MaxDeques() < 4 {
		t.Fatalf("MaxDeques = %d, want ≥ 4", pl.MaxDeques())
	}
}

// TestQuickRandomOpsInvariants drives the pool with random scripts of the
// operations a legal scheduler performs — a forked child's priority sits
// immediately above its parent's in the 1DF order, maintained with the
// same order-maintenance list the runtimes use — and checks the Lemma 3.1
// invariants after every step.
func TestQuickRandomOpsInvariants(t *testing.T) {
	f := func(script []uint8, seed int64) bool {
		const p = 4
		var prios om.List
		pl := NewPool(p, om.Less)
		rng := rand.New(rand.NewSource(seed))
		pl.Seed(prios.PushBack())
		curr := make([]*om.Record, p) // nil = idle
		for _, b := range script {
			w := int(b) % p
			switch (b / 4) % 4 {
			case 0: // steal if idle and deque-less
				if curr[w] == nil && !pl.Owns(w) {
					pl.BeginRound()
					if x, ok := pl.StealFrom(w, rng.Intn(p), false); ok {
						curr[w] = x
					}
				}
			case 1: // fork: push the parent, run the child, whose priority
				// is immediately above the parent's
				if curr[w] != nil && pl.Owns(w) {
					pl.PushOwn(w, curr[w])
					curr[w] = prios.InsertBefore(curr[w])
				}
			case 2: // terminate/suspend: pop own or go idle
				if curr[w] != nil && pl.Owns(w) {
					if x, ok := pl.PopOwn(w); ok {
						curr[w] = x
					} else {
						curr[w] = nil
					}
				}
			case 3: // quota exhaustion: push back and give up
				if curr[w] != nil && pl.Owns(w) {
					pl.PushOwn(w, curr[w])
					pl.GiveUp(w)
					curr[w] = nil
				}
			}
			err := pl.CheckInvariants(func(w int) (*om.Record, bool) {
				return curr[w], curr[w] != nil
			})
			if err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStealCycle(b *testing.B) {
	pl, rng := intPool(4, 1)
	pl.Seed(1)
	stealUntil2(pl, rng, 0)
	for i := 0; i < b.N; i++ {
		pl.PushOwn(0, i)
		pl.GiveUp(0)
		stealUntil2(pl, rng, 0)
	}
}

func stealUntil2(pl *Pool[int], rng *rand.Rand, w int) int {
	for {
		if x, ok := steal(pl, rng, w); ok {
			return x
		}
	}
}
