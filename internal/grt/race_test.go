package grt_test

// Concurrency stress tests for the runtime's fine-grained synchronization.
// They are written to be meaningful under the race detector (tier-1 runs
// them with -race): every workload funnels results through real shared
// memory, so a missing happens-before edge in the scheduler shows up as a
// reported race or a wrong count, and a broken wake-up protocol shows up
// as the deadlock error. Each test asserts exact join counts and that the
// heap accounting returns to zero.

import (
	"sync/atomic"
	"testing"

	"dfdeques/internal/grt"
)

// fine runs f as the "fine" subtest: the name records the runtime's one
// (fine-grained) synchronization engine and keeps the subtest ids stable.
func fine(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("fine", f)
}

func stressWorkers() []int { return []int{1, 2, 4, 8} }

// TestGrtRaceForkHeavy hammers the fork/join hot path: a full binary fork
// tree with no work at the leaves, so scheduling dominates completely.
func TestGrtRaceForkHeavy(t *testing.T) {
	const depth = 9 // 512 leaves, 1023 threads
	fine(t, func(t *testing.T) {
		for _, k := range kinds() {
			for _, workers := range stressWorkers() {
				var leaves int64
				st, err := grt.Run(grt.Config{
					Workers: workers, Sched: k, Seed: int64(workers),
				}, func(r *grt.T) {
					var rec func(t *grt.T, d int)
					rec = func(t *grt.T, d int) {
						if d == 0 {
							atomic.AddInt64(&leaves, 1)
							return
						}
						h := t.Fork(func(c *grt.T) { rec(c, d-1) })
						rec(t, d-1)
						t.Join(h)
					}
					rec(r, depth)
				})
				if err != nil {
					t.Fatalf("%v/%d: %v", k, workers, err)
				}
				if leaves != 1<<depth {
					t.Errorf("%v/%d: leaves = %d, want %d", k, workers, leaves, 1<<depth)
				}
				if st.TotalThreads != 1<<depth {
					// Every internal node forks exactly one child; with the
					// root that is 2^depth threads, deterministically.
					t.Errorf("%v/%d: threads = %d, want %d", k, workers, st.TotalThreads, 1<<depth)
				}
			}
		}
	})
}

// TestGrtRaceStealHeavy keeps deques near-empty so workers must
// continually steal: a long chain of fork-joins of trivial children, with
// a quota-stressed alloc/free pattern mixed in so the preemption and
// give-up-deque paths run concurrently with the thieves. Heap accounting
// must return exactly to zero.
func TestGrtRaceStealHeavy(t *testing.T) {
	const links = 300
	fine(t, func(t *testing.T) {
		for _, workers := range stressWorkers() {
			var joined int64
			st, err := grt.Run(grt.Config{
				Workers: workers, Sched: grt.DFDeques, K: 128,
				Seed: 100 + int64(workers),
			}, func(r *grt.T) {
				for i := 0; i < links; i++ {
					h := r.Fork(func(c *grt.T) {
						c.Alloc(96)
						c.Free(96)
						atomic.AddInt64(&joined, 1)
					})
					r.Alloc(96)
					r.Free(96)
					r.Join(h)
				}
			})
			if err != nil {
				t.Fatalf("%d workers: %v", workers, err)
			}
			if joined != links {
				t.Errorf("%d workers: joined = %d, want %d", workers, joined, links)
			}
			if st.HeapLive != 0 {
				t.Errorf("%d workers: heap accounting leaked %d bytes", workers, st.HeapLive)
			}
			if st.TotalThreads != links+1 {
				t.Errorf("%d workers: threads = %d, want %d", workers, st.TotalThreads, links+1)
			}
		}
	})
}

// TestGrtRaceStealHeavyWS is the WS analogue of the steal-heavy stress: a
// long chain of fork-joins of trivial children keeps every per-worker
// deque near-empty, so the parent is stolen from the forker's deque bottom
// over and over while the random-victim thieves spin. No quota path exists
// to throttle it.
func TestGrtRaceStealHeavyWS(t *testing.T) {
	const links = 300
	fine(t, func(t *testing.T) {
		for _, workers := range stressWorkers() {
			var joined int64
			st, err := grt.Run(grt.Config{
				Workers: workers, Sched: grt.WS,
				Seed: 200 + int64(workers),
			}, func(r *grt.T) {
				for i := 0; i < links; i++ {
					h := r.Fork(func(c *grt.T) {
						atomic.AddInt64(&joined, 1)
					})
					r.Join(h)
				}
			})
			if err != nil {
				t.Fatalf("%d workers: %v", workers, err)
			}
			if joined != links {
				t.Errorf("%d workers: joined = %d, want %d", workers, joined, links)
			}
			if st.TotalThreads != links+1 {
				t.Errorf("%d workers: threads = %d, want %d", workers, st.TotalThreads, links+1)
			}
			if st.Preemptions != 0 {
				t.Errorf("%d workers: WS preempted %d times (has no quota)", workers, st.Preemptions)
			}
		}
	})
}

// TestGrtRaceLockHeavy is the Fig. 17 tree-build shape: parallel leaves
// all inserting into a shared structure behind scheduler-mediated
// Mutexes. Every insertion must survive (mutual exclusion) and every
// lock-blocked thread must be woken exactly once (exact totals).
func TestGrtRaceLockHeavy(t *testing.T) {
	const (
		inserters = 64
		perThread = 8
		buckets   = 4
	)
	fine(t, func(t *testing.T) {
		for _, k := range kinds() {
			locks := make([]grt.Mutex, buckets)
			counts := make([]int64, buckets)
			var rec func(t *grt.T, lo, hi int)
			rec = func(t *grt.T, lo, hi int) {
				if hi-lo == 1 {
					for j := 0; j < perThread; j++ {
						b := (lo + j) % buckets
						locks[b].Lock(t)
						counts[b]++ // plain RMW: lost updates would show
						locks[b].Unlock(t)
					}
					return
				}
				mid := (lo + hi) / 2
				h := t.Fork(func(c *grt.T) { rec(c, lo, mid) })
				rec(t, mid, hi)
				t.Join(h)
			}
			_, err := grt.Run(grt.Config{
				Workers: 8, Sched: k, Seed: 17,
			}, func(r *grt.T) { rec(r, 0, inserters) })
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			var total int64
			for _, c := range counts {
				total += c
			}
			if total != inserters*perThread {
				t.Errorf("%v: insertions = %d, want %d", k, total, inserters*perThread)
			}
		}
	})
}

// TestGrtRaceFutureFanout stresses the future wake path: many readers
// block on one future set by a late sibling, so the wake must republish
// every reader exactly once across workers.
func TestGrtRaceFutureFanout(t *testing.T) {
	const readers = 32
	fine(t, func(t *testing.T) {
		for _, k := range kinds() {
			var fut grt.Future
			var sum int64
			_, err := grt.Run(grt.Config{
				Workers: 4, Sched: k, Seed: 23,
			}, func(r *grt.T) {
				handles := make([]*grt.T, 0, readers+1)
				for i := 0; i < readers; i++ {
					handles = append(handles, r.Fork(func(c *grt.T) {
						atomic.AddInt64(&sum, int64(fut.Get(c).(int)))
					}))
				}
				handles = append(handles, r.Fork(func(c *grt.T) { fut.Set(c, 7) }))
				for i := len(handles) - 1; i >= 0; i-- {
					r.Join(handles[i])
				}
			})
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			if sum != 7*readers {
				t.Errorf("%v: sum = %d, want %d", k, sum, 7*readers)
			}
		}
	})
}

// TestGrtRaceDummyTrees drives the §3.3 dummy-thread path (allocations
// over K) from many threads at once: the give-up-deque-after-dummy step
// runs concurrently with steals, and the heap must still balance.
func TestGrtRaceDummyTrees(t *testing.T) {
	const allocators = 16
	fine(t, func(t *testing.T) {
		st, err := grt.Run(grt.Config{
			Workers: 4, Sched: grt.DFDeques, K: 100, Seed: 29,
		}, func(r *grt.T) {
			var rec func(t *grt.T, n int)
			rec = func(t *grt.T, n int) {
				if n == 1 {
					t.Alloc(450) // 5 dummy leaves each
					t.Free(450)
					return
				}
				h := t.Fork(func(c *grt.T) { rec(c, n/2) })
				rec(t, n-n/2)
				t.Join(h)
			}
			rec(r, allocators)
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.DummyThreads != allocators*5 {
			t.Errorf("dummies = %d, want %d", st.DummyThreads, allocators*5)
		}
		if st.HeapLive != 0 {
			t.Errorf("heap accounting leaked %d bytes", st.HeapLive)
		}
	})
}

// TestGrtRaceRepeatedRuns runs many small runtimes back to back per
// scheduler; lifecycle races (worker startup, root seeding, termination
// broadcast) tend to show here rather than inside one long run.
func TestGrtRaceRepeatedRuns(t *testing.T) {
	fine(t, func(t *testing.T) {
		for _, k := range kinds() {
			for i := 0; i < 20; i++ {
				var n int64
				st, err := grt.Run(grt.Config{
					Workers: 3, Sched: k, Seed: int64(i),
				}, func(r *grt.T) {
					h := r.Fork(func(c *grt.T) { atomic.AddInt64(&n, 1) })
					atomic.AddInt64(&n, 1)
					r.Join(h)
				})
				if err != nil {
					t.Fatalf("%v run %d: %v", k, i, err)
				}
				if n != 2 || st.TotalThreads != 2 {
					t.Fatalf("%v run %d: n=%d threads=%d", k, i, n, st.TotalThreads)
				}
			}
		}
	})
}

// TestGrtStatsContention checks the contention counters are wired for
// every policy: a measured run counts and times the exclusive holds of the
// policy's serializing lock (the R spine for DFDeques, the queue mutex for
// ADF and FIFO). WS takes its inject mutex only at Submit, once per job,
// so its hold time may be too short for the clock; only its count is
// asserted.
func TestGrtStatsContention(t *testing.T) {
	for _, k := range kinds() {
		st, err := grt.Run(grt.Config{
			Workers: 4, Sched: k, K: 600, Seed: 31, MeasureContention: true,
		}, func(r *grt.T) {
			var rec func(t *grt.T, d int)
			rec = func(t *grt.T, d int) {
				if d == 0 {
					t.Alloc(700) // over K: the dummy tree puts a deque give-up on the spine
					t.Free(700)
					return
				}
				h := t.Fork(func(c *grt.T) { rec(c, d-1) })
				rec(t, d-1)
				t.Join(h)
			}
			rec(r, 6)
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.SchedLockOps == 0 {
			t.Errorf("%v: lock-op counter empty: %+v", k, st)
		}
		if k != grt.WS && st.SchedLockNs == 0 {
			t.Errorf("%v: lock hold time not measured: %+v", k, st)
		}
	}
}
