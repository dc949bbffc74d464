package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dfdeques/internal/core"
	"dfdeques/internal/deque"
)

// Calibrations of the two lowest layers, timed from outside through
// their public operations under nproc concurrent goroutines. They run in
// every traced run, whatever the workload.

// calibrate runs the deque and core calibrations, 15% of the run's time
// in all.
func calibrate(c runConfig, r *report) {
	d := c.budget(0.05)
	calibrateDeque(r, d)
	calibrateCore(r, d)
}

// pairBatch is how many owner push/pop pairs one timed batch holds.
const pairBatch = 1024

// ownerBatches times batches of PushTop+PopTop pairs on dq until stop is
// set, returning ns per pair for each batch.
func ownerBatches(dq *deque.Deque[int64], stop *atomic.Bool) []float64 {
	var out []float64
	for !stop.Load() {
		t0 := time.Now()
		for i := int64(1); i <= pairBatch; i++ {
			dq.PushTop(i)
			dq.PopTop()
		}
		out = append(out, float64(time.Since(t0))/pairBatch)
	}
	return out
}

// calibrateDeque times owner PushTop+PopTop pairs alone, then again while
// nproc−1 thieves call PopBottom in a loop, timing the thieves' calls.
func calibrateDeque(r *report, d time.Duration) {
	// Alone, with the allocation count over the whole phase.
	dq := deque.NewDeque[int64]()
	var stop atomic.Bool
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	solo := ownerBatches(dq, &stop)
	runtime.ReadMemStats(&ms1)
	timer.Stop()
	s := summarize(solo)
	r.add("deque.owner_pushpop_ns", s.Median, s.N, fmt.Sprintf("median of %d-pair batches, no thieves", pairBatch))
	ops := float64(2 * pairBatch * len(solo))
	r.add("deque.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/ops, int(ops), "heap allocations per push or pop, no thieves")

	// Against a steal storm.
	thieves := max(1, runtime.NumCPU()-1)
	dq = deque.NewDeque[int64]()
	stop.Store(false)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var stealNs []float64
	var calls, fails int64
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			var n, f int64
			for !stop.Load() {
				t0 := time.Now()
				for j := 0; j < 256; j++ {
					if _, ok := dq.PopBottom(); !ok {
						f++
					}
				}
				mine = append(mine, float64(time.Since(t0))/256)
				n += 256
			}
			mu.Lock()
			stealNs = append(stealNs, mine...)
			calls += n
			fails += f
			mu.Unlock()
		}()
	}
	timer = time.AfterFunc(d, func() { stop.Store(true) })
	storm := ownerBatches(dq, &stop)
	wg.Wait()
	timer.Stop()
	s = summarize(storm)
	r.add("deque.owner_pushpop_storm_ns", s.Median, s.N, fmt.Sprintf("owner pairs while %d thieves PopBottom", thieves))
	s = summarize(stealNs)
	r.add("deque.steal_ns", s.Median, s.N, "median per PopBottom call during the storm, batches of 256")
	r.add("deque.steal_fail_ratio", float64(fails)/float64(max(calls, 1)), int(calls), "empty or lost PopBottom calls / all calls")
}

// calibrateCore times SharedPool.Steal — the bottom pop plus the
// insert-right of the thief's new deque on the R spine — with nproc
// workers each cycling steal → push the item back → give the deque up,
// so R holds about nproc one-item deques throughout.
func calibrateCore(r *report, d time.Duration) {
	p := runtime.NumCPU()
	pl := core.NewSharedPool[int64](p, func(a, b int64) bool { return a < b }, 1)
	for i := int64(1); i <= int64(p); i++ {
		pl.Seed(i)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ns []float64
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			for !stop.Load() {
				t0 := time.Now()
				x, ok := pl.Steal(w)
				if !ok {
					continue
				}
				mine = append(mine, float64(time.Since(t0)))
				pl.PushOwn(w, x)
				pl.GiveUp(w)
			}
			mu.Lock()
			ns = append(ns, mine...)
			mu.Unlock()
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	s := summarize(ns)
	steals, failed, _ := pl.Stats()
	r.add("core.steal_insert_ns", s.Median, s.N, fmt.Sprintf("median successful Steal under %d thieves; %d failed of %d attempts", p, failed, steals+failed))
}
