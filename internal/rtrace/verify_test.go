package rtrace_test

// End-to-end replay verification: record real concurrent runs of the
// grt runtime and replay them through the verifier. Every workload here
// is nested-parallel and lock-free, so the Lemma 3.1 ordering checks run
// at full strength (Report.OrderingExact).

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dfdeques/internal/grt"
	"dfdeques/internal/rtrace"
)

// The three verification workloads: a balanced fork-join tree, a
// sequential fork-join chain, and a divide-and-conquer allocator whose
// big allocations trigger the dummy-thread transformation and whose
// small ones exhaust the quota.

func tree(depth int) func(*grt.T) {
	var node func(t *grt.T, d int)
	node = func(t *grt.T, d int) {
		if d == 0 {
			t.Alloc(48)
			t.Free(48)
			return
		}
		l := t.Fork(func(c *grt.T) { node(c, d-1) })
		r := t.Fork(func(c *grt.T) { node(c, d-1) })
		t.Join(r)
		t.Join(l)
	}
	return func(t *grt.T) { node(t, depth) }
}

func chain(n int) func(*grt.T) {
	var link func(t *grt.T, i int)
	link = func(t *grt.T, i int) {
		if i == 0 {
			return
		}
		t.Alloc(96)
		t.ForkJoin(func(c *grt.T) { link(c, i-1) })
		t.Free(96)
	}
	return func(t *grt.T) { link(t, n) }
}

func bigAllocs(n int) func(*grt.T) {
	var node func(t *grt.T, i int)
	node = func(t *grt.T, i int) {
		if i == 0 {
			t.Alloc(1000) // > K for the K=256 runs: forks a dummy tree
			t.Free(1000)
			return
		}
		t.ForkJoin(func(c *grt.T) { node(c, i-1) })
		t.ForkJoin(func(c *grt.T) { node(c, i-1) })
	}
	return func(t *grt.T) { node(t, n) }
}

// record runs the workload under tracing and returns the recorder.
func record(t *testing.T, cfg grt.Config, body func(*grt.T)) *rtrace.Recorder {
	t.Helper()
	rec := rtrace.NewRecorder(cfg.Workers, 1<<16)
	cfg.Probe = rec
	if _, err := grt.Run(cfg, body); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; raise the buffer", rec.Dropped())
	}
	return rec
}

// TestVerifyRealRuns replays seeded real runs of three workloads under
// each scheduling policy and requires every invariant to hold.
func TestVerifyRealRuns(t *testing.T) {
	workloads := []struct {
		name string
		body func(*grt.T)
	}{
		{"tree", tree(6)},
		{"chain", chain(24)},
		{"bigalloc", bigAllocs(4)},
	}
	scheds := []struct {
		name string
		kind grt.Kind
		k    int64
	}{
		{"DFD", grt.DFDeques, 256},
		{"DFD-inf", grt.DFDeques, 0},
		{"WS", grt.WS, 0},
		{"ADF", grt.ADF, 256},
		{"FIFO", grt.FIFO, 256},
	}
	for _, wl := range workloads {
		for _, sc := range scheds {
			t.Run(wl.name+"/"+sc.name, func(t *testing.T) {
				t.Parallel()
				rec := record(t, grt.Config{
					Workers: 4, Sched: sc.kind, K: sc.k, Seed: 11,
				}, wl.body)
				rep, err := rtrace.Verify(rec.Meta(), rec.Events(), rec.Dropped())
				if err != nil {
					t.Fatalf("replay verification failed: %v", err)
				}
				if !rep.OrderingExact {
					t.Fatalf("ordering checks degraded on a lock-free workload: %v", rep.Notes)
				}
				if rep.Threads < 2 {
					t.Fatalf("replay saw %d threads", rep.Threads)
				}
				if sc.k > 0 && sc.kind == grt.DFDeques && wl.name == "bigalloc" && rep.DummyThreads == 0 {
					t.Fatal("bigalloc run produced no dummy threads")
				}
			})
		}
	}
}

// TestVerifyLockProgramDegradesGracefully: programs using Mutex leave the
// nested-parallel model, so the verifier must disable the ordering checks
// (§5) but still prove conservation and quota accounting.
func TestVerifyLockProgramDegradesGracefully(t *testing.T) {
	var mu grt.Mutex
	body := func(t *grt.T) {
		var hs []*grt.T
		for i := 0; i < 6; i++ {
			hs = append(hs, t.Fork(func(c *grt.T) {
				mu.Lock(c)
				c.Alloc(32)
				c.Free(32)
				mu.Unlock(c)
			}))
		}
		for i := len(hs) - 1; i >= 0; i-- {
			t.Join(hs[i])
		}
	}
	rec := record(t, grt.Config{Workers: 4, Sched: grt.DFDeques, K: 256, Seed: 5}, body)
	rep, err := rtrace.Verify(rec.Meta(), rec.Events(), rec.Dropped())
	if err != nil {
		t.Fatalf("replay verification failed on a locking program: %v", err)
	}
	// Contention is scheduling-dependent: only assert degradation when a
	// lock block actually occurred.
	for _, e := range rec.Events() {
		if e.Kind == rtrace.EvBlock && e.B == rtrace.BlockLock {
			if rep.OrderingExact {
				t.Fatal("ordering still exact despite lock blocks")
			}
			return
		}
	}
}

// TestVerifyRejectsCorruptedStreams tampers with a genuine recorded
// stream in several ways; the verifier must reject every mutation.
func TestVerifyRejectsCorruptedStreams(t *testing.T) {
	rec := record(t, grt.Config{Workers: 4, Sched: grt.DFDeques, K: 256, Seed: 9}, tree(5))
	meta, good := rec.Meta(), rec.Events()
	if _, err := rtrace.Verify(meta, good, 0); err != nil {
		t.Fatalf("baseline stream must verify: %v", err)
	}
	clone := func() []rtrace.Event { return append([]rtrace.Event(nil), good...) }
	idxOf := func(k rtrace.Kind) int {
		for i := len(good) - 1; i >= 0; i-- {
			if good[i].Kind == k {
				return i
			}
		}
		t.Fatalf("stream has no %v event", k)
		return -1
	}

	cases := []struct {
		name   string
		mutate func([]rtrace.Event) []rtrace.Event
	}{
		{"phantom-thread-push", func(evs []rtrace.Event) []rtrace.Event {
			evs[idxOf(rtrace.EvPush)].A = 1 << 40
			return evs
		}},
		{"truncated-completion", func(evs []rtrace.Event) []rtrace.Event {
			i := idxOf(rtrace.EvComplete)
			return append(evs[:i], evs[i+1:]...)
		}},
		{"duplicated-sequence", func(evs []rtrace.Event) []rtrace.Event {
			evs[len(evs)/2].Seq = evs[len(evs)/2-1].Seq
			return evs
		}},
		{"stolen-wrong-end", func(evs []rtrace.Event) []rtrace.Event {
			// Claim the steal removed a different thread than the
			// victim's bottom.
			i := idxOf(rtrace.EvSteal)
			evs[i].A++
			return evs
		}},
		{"misplaced-victim", func(evs []rtrace.Event) []rtrace.Event {
			// Claim a steal attempt found its victim one place further
			// right in R than the replay has it.
			for i := range evs {
				if evs[i].Kind == rtrace.EvStealAttempt && evs[i].A >= 0 {
					evs[i].B++
					return evs
				}
			}
			t.Fatal("stream has no steal attempt that reached a victim")
			return evs
		}},
		{"forged-quota", func(evs []rtrace.Event) []rtrace.Event {
			// An allocation far beyond K could never fit the quota.
			i := idxOf(rtrace.EvAlloc)
			evs[i].B = meta.K * 100
			return evs
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := rtrace.Verify(meta, tc.mutate(clone()), 0); err == nil {
				t.Fatal("verifier accepted a corrupted stream")
			} else if !strings.Contains(err.Error(), "rtrace:") {
				t.Fatalf("unexpected error shape: %v", err)
			}
		})
	}
	if _, err := rtrace.Verify(meta, good, 1); err == nil {
		t.Fatal("verifier accepted a stream with drops")
	}
}

// TestExportRealRunLoadsBack exports a real run and checks the file both
// loads back for replay and verifies.
func TestExportRealRunLoadsBack(t *testing.T) {
	rec := record(t, grt.Config{Workers: 2, Sched: grt.DFDeques, K: 512, Seed: 2}, tree(5))
	var buf bytes.Buffer
	if err := rtrace.Export(&buf, rec.Meta(), rec.Events(), rec.Dropped()); err != nil {
		t.Fatalf("Export: %v", err)
	}
	meta, evs, dropped, err := rtrace.Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := rtrace.Verify(meta, evs, dropped); err != nil {
		t.Fatalf("replay of exported file failed: %v", err)
	}
}

// TestVerifyMultiJobStreamWithCancellation records a persistent runtime
// serving three jobs — two completing, one canceled mid-flight — and
// requires the replay to track each job's lifecycle: every thread
// attributed to its job, the canceled job drained through ordinary
// dispatches and completions, and all three jobs ended. Under DFDeques
// the late roots enter through priority-positioned injection, so the
// Lemma 3.1 ordering checks stay at full strength; under WS a late root
// joins deque 0 regardless of priority, and the verifier must degrade
// ordering the way it does for lock programs. The exported file must
// round-trip through Load and verify identically (the dfdtrace -verify
// path).
func TestVerifyMultiJobStreamWithCancellation(t *testing.T) {
	spin := func(t *grt.T) {
		for {
			t.ForkJoin(func(*grt.T) {})
			// Throttle: an inline fork+join costs nanoseconds, and an
			// unthrottled spinner would overflow the recorder ring before
			// the cancel lands. The sleep bounds the event rate, not the
			// iteration count — the job still only ends by poisoning.
			time.Sleep(20 * time.Microsecond)
		}
	}
	for _, sc := range []struct {
		name  string
		kind  grt.Kind
		k     int64
		exact bool
	}{
		{"DFD", grt.DFDeques, 256, true},
		{"WS", grt.WS, 0, false},
	} {
		t.Run(sc.name, func(t *testing.T) {
			rec := rtrace.NewRecorder(4, 1<<18)
			rt, err := grt.New(grt.Config{
				Workers: 4, Sched: sc.kind, K: sc.k, Seed: 13, Probe: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			jA, err := rt.Submit(context.Background(), tree(6))
			if err != nil {
				t.Fatal(err)
			}
			ctxB, cancelB := context.WithCancel(context.Background())
			defer cancelB()
			jB, err := rt.Submit(ctxB, spin)
			if err != nil {
				t.Fatal(err)
			}
			jC, err := rt.Submit(context.Background(), chain(12))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := jA.Wait(); err != nil {
				t.Fatalf("job A: %v", err)
			}
			if _, err := jC.Wait(); err != nil {
				t.Fatalf("job C: %v", err)
			}
			cancelB()
			if _, err := jB.Wait(); !errors.Is(err, context.Canceled) {
				t.Fatalf("job B: %v, want context.Canceled", err)
			}
			if err := rt.Shutdown(context.Background()); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if rec.Dropped() != 0 {
				t.Fatalf("ring dropped %d events; raise the buffer", rec.Dropped())
			}

			rep, err := rtrace.Verify(rec.Meta(), rec.Events(), rec.Dropped())
			if err != nil {
				t.Fatalf("replay verification failed: %v", err)
			}
			if rep.Jobs != 3 {
				t.Fatalf("replay saw %d jobs, want 3", rep.Jobs)
			}
			if rep.CanceledJobs != 1 {
				t.Fatalf("replay saw %d canceled jobs, want 1", rep.CanceledJobs)
			}
			if rep.OrderingExact != sc.exact {
				t.Fatalf("OrderingExact = %v, want %v (notes: %v)", rep.OrderingExact, sc.exact, rep.Notes)
			}

			var buf bytes.Buffer
			if err := rtrace.Export(&buf, rec.Meta(), rec.Events(), rec.Dropped()); err != nil {
				t.Fatalf("Export: %v", err)
			}
			meta, evs, dropped, err := rtrace.Load(&buf)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			rep2, err := rtrace.Verify(meta, evs, dropped)
			if err != nil {
				t.Fatalf("replay of exported multi-job file failed: %v", err)
			}
			if rep2.Jobs != 3 || rep2.CanceledJobs != 1 {
				t.Fatalf("exported replay saw %d jobs / %d canceled, want 3 / 1", rep2.Jobs, rep2.CanceledJobs)
			}
			sum := rtrace.Summarize(meta, evs, dropped)
			if sum.Jobs != 3 || sum.CanceledJobs != 1 {
				t.Fatalf("summary has %d jobs / %d canceled, want 3 / 1", sum.Jobs, sum.CanceledJobs)
			}
			if sum.Threads != rep2.Threads {
				t.Fatalf("summary counts %d threads, replay %d", sum.Threads, rep2.Threads)
			}
		})
	}
}

// TestVerifyStealPlacesThiefLeft replays a hand-built two-worker stream
// with one work-first steal. w0 runs the root t1, which forks t2 and then
// t3 (1DF order t2, t3, t1; bottom→top on w0's deque d2: t2, t3). w1
// steals the bottom t2 into its new deque d3 and forks t4, which precedes
// t2 and so also t3, the thread still in d2. Lemma 3.1 therefore needs
// d3 left of d2. A replay that put the thief's deque right of its victim
// would read t3 (left) before t4 (right) and report R out of order.
func TestVerifyStealPlacesThiefLeft(t *testing.T) {
	meta := rtrace.Meta{Policy: "DFDeques", Workers: 2}
	var seq uint64
	e := func(w int32, k rtrace.Kind, a, b, c int64) rtrace.Event {
		seq++
		return ev(seq, w, k, a, b, c)
	}
	inlineJoin := func(w int32, parent, child, dq int64) []rtrace.Event {
		return []rtrace.Event{
			e(w, rtrace.EvPop, child, dq, 0),
			e(w, rtrace.EvBlock, parent, rtrace.BlockJoin, child),
			e(w, rtrace.EvDispatch, child, rtrace.SrcInline, 0),
			e(w, rtrace.EvComplete, child, 0, 0),
			e(w, rtrace.EvDispatch, parent, rtrace.SrcTerminate, 0),
		}
	}
	evs := []rtrace.Event{
		e(-1, rtrace.EvDequeCreate, 1, -1, 0),
		e(-1, rtrace.EvPush, 1, 1, 0),
		e(0, rtrace.EvStealAttempt, 1, 0, 0),
		e(0, rtrace.EvSteal, 1, 1, 2),
		e(0, rtrace.EvDequeRetire, 1, 0, 0),
		e(0, rtrace.EvDispatch, 1, rtrace.SrcAcquire, 0),
		e(0, rtrace.EvFork, 1, 2, 0),
		e(0, rtrace.EvPush, 2, 2, 0),
		e(0, rtrace.EvFork, 1, 3, 0),
		e(0, rtrace.EvPush, 3, 2, 0),
		e(1, rtrace.EvStealAttempt, 2, 0, 0),
		e(1, rtrace.EvSteal, 2, 2, 3),
		e(1, rtrace.EvDispatch, 2, rtrace.SrcAcquire, 0),
		e(1, rtrace.EvFork, 2, 4, 0),
		e(1, rtrace.EvPush, 4, 3, 0),
	}
	evs = append(evs, inlineJoin(1, 2, 4, 3)...)
	evs = append(evs,
		e(1, rtrace.EvComplete, 2, 0, 0),
		e(1, rtrace.EvDequeRetire, 3, 0, 0))
	evs = append(evs, inlineJoin(0, 1, 3, 2)...)
	evs = append(evs,
		e(0, rtrace.EvComplete, 1, 0, 0),
		e(0, rtrace.EvDequeRetire, 2, 0, 0))

	rep, err := rtrace.Verify(meta, evs, 0)
	if err != nil {
		t.Fatalf("replay rejected a steal placed left of its victim: %v", err)
	}
	if !rep.OrderingExact || rep.Steals != 2 || rep.Threads != 4 {
		t.Fatalf("report %+v, want exact ordering, 2 steals, 4 threads", rep)
	}
}
