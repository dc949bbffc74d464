package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"dfdeques"
)

// The two runtime workloads (fj-fine, mm-quota) share one driver: a
// closed loop with a single submitter on a warm dfdeques.Runtime, timing
// each job from Submit to Wait returning. The untraced run alternates
// short blocks between a Workers=nproc and a Workers=1 runtime so the
// speedup ratio sees the same host conditions on both sides.

// rtWorkload describes one runtime workload.
type rtWorkload struct {
	k     int64
	s1    int64 // serial space of one job, for heap_hw_over_s1
	depth int64 // D of one job, for the Theorem 4.4 figure
	// job returns the root body of one job and the check of its result.
	// sp is nil in untraced phases; parent is the cell holding the span
	// the root thread's span should hang under (see runJob).
	job func(sp *spanLog, id int32, parent *atomic.Int32) (func(*dfdeques.Thread), func(dfdeques.JobStats) error)
	// warmup is the number of jobs each runtime runs during set-up.
	warmup int
}

type rtEnv struct{ rtN, rt1 *dfdeques.Runtime }

func (e *rtEnv) close() {
	for _, rt := range []*dfdeques.Runtime{e.rtN, e.rt1} {
		if rt != nil {
			_ = rt.Shutdown(context.Background()) // drains finished jobs only; cannot fail here
		}
	}
}

// jobOutcome is one job's timing and result.
type jobOutcome struct {
	lat time.Duration
	js  dfdeques.JobStats
	err error // job error (a counted failure)
	bad error // wrong output (a correctness failure)
}

// runJob submits one job and waits for it. With a span log it records
// the job, Submit and Wait spans; the root thread's span hangs under the
// Wait span once Wait has begun, else under the job span.
func runJob(rt *dfdeques.Runtime, w *rtWorkload, sp *spanLog, id int32) jobOutcome {
	t0 := time.Now()
	js := sp.begin(spJob, -1, id)
	var parent atomic.Int32
	parent.Store(js)
	root, check := w.job(sp, id, &parent)
	s := sp.begin(spSubmit, js, id)
	j, err := rt.Submit(context.Background(), root)
	sp.end(s)
	if err != nil {
		sp.end(js)
		return jobOutcome{lat: time.Since(t0), err: err}
	}
	ws := sp.begin(spWait, js, id)
	if ws >= 0 {
		parent.Store(ws)
	}
	st, err := j.Wait()
	sp.end(ws)
	sp.end(js)
	o := jobOutcome{lat: time.Since(t0), js: st, err: err}
	if err == nil {
		o.bad = check(st)
	}
	return o
}

// tally accumulates outcomes into a report and latency samples.
type tally struct {
	lat  []float64 // ms, jobs that completed correctly
	heap []float64 // HeapHW of the same jobs
	ok   int
	rate []float64 // correct jobs per second, one per timed block
	keep bool      // keep every job's stats in jobs
	jobs []dfdeques.JobStats
}

func (t *tally) add(r *report, o jobOutcome) {
	r.attempted++
	switch {
	case o.err != nil:
		r.fail("job error: %v", o.err)
	case o.bad != nil:
		r.wrong("%v", o.bad)
	default:
		t.ok++
		t.lat = append(t.lat, float64(o.lat)/1e6)
		t.heap = append(t.heap, float64(o.js.HeapHW))
		if t.keep {
			t.jobs = append(t.jobs, o.js)
		}
	}
}

// loop runs jobs on rt until d has passed and records the block's rate
// of correct jobs. With a span log it also stops before a job whose
// spans might not fit, so every traced job is traced whole.
func loop(rt *dfdeques.Runtime, w *rtWorkload, sp *spanLog, d time.Duration, r *report, t *tally, nextID *int32) {
	start := time.Now()
	ok0 := t.ok
	var need int64
	for time.Since(start) < d && (sp == nil || sp.room(need)) {
		before := sp.used()
		t.add(r, runJob(rt, w, sp, *nextID))
		*nextID++
		if sp != nil {
			need = max(need, sp.used()-before)
		}
	}
	t.rate = append(t.rate, float64(t.ok-ok0)/time.Since(start).Seconds())
}

func newRT(workers int, k, seed int64, contention bool, probe dfdeques.TraceProbe) (*dfdeques.Runtime, error) {
	return dfdeques.NewRuntime(dfdeques.RuntimeConfig{Workers: workers, Sched: dfdeques.SchedDFDeques, K: k, Seed: seed, MeasureContention: contention, Probe: probe})
}

// setupRT builds both runtimes and warms them with w.warmup jobs each.
func setupRT(w *rtWorkload, seed int64, contention bool) (*rtEnv, error) {
	e := &rtEnv{}
	var err error
	if e.rtN, err = newRT(runtime.NumCPU(), w.k, seed, contention, nil); err != nil {
		return nil, err
	}
	if e.rt1, err = newRT(1, w.k, seed, contention, nil); err != nil {
		e.close()
		return nil, err
	}
	for _, rt := range []*dfdeques.Runtime{e.rtN, e.rt1} {
		for i := 0; i < w.warmup; i++ {
			if o := runJob(rt, w, nil, -1); o.err != nil || o.bad != nil {
				e.close()
				return nil, fmt.Errorf("warm-up job: %v%v", o.err, o.bad)
			}
		}
	}
	return e, nil
}

// setupReps is how many times a run builds its environment; setup_s is
// the median, and only the last environment is kept.
const setupReps = 5

func measureSetup[E any](reps int, build func() (E, error), discard func(E)) (E, []float64, error) {
	var env E
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		e, err := build()
		if err != nil {
			return env, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			discard(e)
		} else {
			env = e
		}
	}
	return env, times, nil
}

func runRuntimeWorkload(c runConfig, w *rtWorkload, r *report) error {
	if c.trace {
		return runRuntimeTraced(c, w, r)
	}
	env, setups, err := measureSetup(setupReps, func() (*rtEnv, error) { return setupRT(w, c.seed, false) }, (*rtEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	ss := summarize(setups)
	r.add("setup_s", ss.Median, ss.N, "median of repeated set-ups")

	// Alternate Workers=nproc and Workers=1 blocks; both sides get half
	// the measured time.
	const blocks = 20
	blk := c.budget(1.0 / blocks)
	var tN, t1 tally
	var id int32
	for b := 0; b < blocks; b++ {
		if b%2 == 0 {
			loop(env.rtN, w, nil, blk, r, &tN, &id)
		} else {
			loop(env.rt1, w, nil, blk, r, &t1, &id)
		}
	}
	if tN.ok == 0 || t1.ok == 0 {
		return fmt.Errorf("no job completed correctly (%d attempted)", r.attempted)
	}
	sN, s1 := summarize(tN.lat), summarize(t1.lat)
	p := runtime.NumCPU()
	r.add("lat_p50_ms", sN.Median, sN.N, fmt.Sprintf("Workers=%d, quartiles %.4g–%.4g; Workers=1 p50 %.4g ms", p, sN.Q1, sN.Q3, s1.Median))
	r.add("lat_p99_ms", sN.Tail, sN.N, fmt.Sprintf("p%g", sN.TailPct))
	rate := summarize(tN.rate)
	r.add("jobs_per_s", rate.Median, rate.N, "median over the Workers=nproc blocks")
	r.add("speedup", s1.Median/sN.Median, min(sN.N, s1.N), fmt.Sprintf("T1/T%d of p50 job latency", p))
	bound := w.s1 + min(w.k, w.s1)*int64(p)*w.depth
	hs := summarize(tN.heap)
	r.add("heap_hw_over_s1", hs.Tail/float64(w.s1), hs.N,
		fmt.Sprintf("p%g HeapHW %.0f B (largest %.0f B), S1 %d B, Thm 4.4 S1+min(K,S1)*p*D = %d B", hs.TailPct, hs.Tail, hs.Max, w.s1, bound))
	r.add("ok_frac", float64(tN.ok+t1.ok)/float64(r.attempted), int(r.attempted), "")
	return nil
}

// runRuntimeTraced is the traced run: an untraced phase for the counters
// and the reference p50, a phase with the benchmark's spans, a pass with
// a trace recorder attached, per-job replay verification, and the deque
// and core calibrations.
func runRuntimeTraced(c runConfig, w *rtWorkload, r *report) error {
	p := runtime.NumCPU()
	rt, err := newRT(p, w.k, c.seed, true, nil)
	if err != nil {
		return err
	}
	defer func() { _ = rt.Shutdown(context.Background()) }()
	for i := 0; i < w.warmup; i++ {
		runJob(rt, w, nil, -1)
	}
	var id int32

	// Untraced phase, MeasureContention on: runtime counter deltas.
	before := rt.Stats(dfdeques.JobStats{})
	u := tally{keep: true}
	loop(rt, w, nil, c.budget(0.3), r, &u, &id)
	after := rt.Stats(dfdeques.JobStats{})
	if u.ok == 0 {
		return fmt.Errorf("no job completed correctly in the untraced phase")
	}
	reportCounters(r, before, after, u.jobs)
	su := summarize(u.lat)
	r.add("e2e.lat_p99_ms", su.Tail, su.N, fmt.Sprintf("p%g of the untraced phase", su.TailPct))

	// Span phase.
	sp := newSpanLog(1 << 19)
	t := tally{}
	loop(rt, w, sp, c.budget(0.3), r, &t, &id)
	st := summarize(t.lat)
	r.add("bench.trace_overhead_pct", 100*(st.Median/su.Median-1), st.N, fmt.Sprintf("p50 %.4g ms traced vs %.4g ms untraced", st.Median, su.Median))
	rep := sp.report()
	if f, n := rep.medianSelf(spFork); n > 0 {
		r.add("grt.fork_ns", f, n, "median self time of Fork spans")
	}
	if j, n := rep.medianSelf(spJoin); n > 0 {
		r.add("grt.join_ns", j, n, "median self time of Join spans (inline child excluded)")
	}
	sub, n := rep.medianSelf(spSubmit)
	r.add("grt.submit_us", sub/1e3, n, "median Submit span")
	wt, n := rep.medianSelf(spWait)
	r.add("grt.wait_us", wt/1e3, n, "median Wait self time (job threads excluded)")
	if err := finishSpans(c, r, sp); err != nil {
		return err
	}

	if err := recorderPass(c, w, r, su.Median, &id); err != nil {
		return err
	}
	calibrate(c, r)
	return nil
}

// reportCounters turns runtime counter deltas and per-job stats from the
// untraced phase into the core, policy and grt per-job metrics.
func reportCounters(r *report, before, after dfdeques.RunStats, jobs []dfdeques.JobStats) {
	n := float64(len(jobs))
	steals := float64(after.Steals - before.Steals)
	failed := float64(after.FailedSteals - before.FailedSteals)
	local := float64(after.LocalDispatches - before.LocalDispatches)
	r.add("core.steals_per_job", steals/n, len(jobs), "")
	if steals+failed > 0 {
		r.add("core.failed_steal_ratio", failed/(steals+failed), int(steals+failed), "failed / attempted steals")
	} else {
		r.add("core.failed_steal_ratio", 0, 0, "no steal attempts")
	}
	r.add("core.spine_lock_ops_per_job", float64(after.SchedLockOps-before.SchedLockOps)/n, len(jobs), "")
	r.add("core.spine_lock_ns_per_job", float64(after.SchedLockNs-before.SchedLockNs)/n, len(jobs), "MeasureContention on")
	r.add("core.steal_wait_ns_per_job", float64(after.StealWaitNs-before.StealWaitNs)/n, len(jobs), "MeasureContention on")
	r.add("core.max_deques", float64(after.MaxDeques), 1, "high water of len(R) over the runtime's life")
	if local+steals > 0 {
		r.add("policy.local_dispatch_share", local/(local+steals), int(local+steals), "own-deque dispatches / (own-deque + stolen)")
	}
	var dummies, preempts, threads, maxLive float64
	for _, js := range jobs {
		dummies += float64(js.DummyThreads)
		preempts += float64(js.Preemptions)
		threads += float64(js.TotalThreads)
		maxLive = max(maxLive, float64(js.MaxLiveThreads))
	}
	r.add("policy.dummy_threads_per_job", dummies/n, len(jobs), "")
	r.add("policy.preemptions_per_job", preempts/n, len(jobs), "")
	r.add("grt.threads_per_job", threads/n, len(jobs), "")
	r.add("grt.max_live_threads", maxLive, len(jobs), "largest JobStats.MaxLiveThreads")
}

// verifyJobs is how many jobs the traced run replays through VerifyTrace.
const verifyJobs = 4

// recorderPass measures what an attached trace recorder costs (p50 on a
// warm recorder-attached runtime against the untraced phase's p50), then
// records verifyJobs single jobs on fresh runtimes and replay-verifies
// each. A verifier reject is a counted failure.
func recorderPass(c runConfig, w *rtWorkload, r *report, untracedP50 float64, id *int32) error {
	p := runtime.NumCPU()
	rec := dfdeques.NewTraceRecorder(p, 1<<16) // a ring: wrapping is fine for timing
	rt, err := newRT(p, w.k, c.seed, true, rec)
	if err != nil {
		return err
	}
	for i := 0; i < w.warmup; i++ {
		runJob(rt, w, nil, -1)
	}
	t := tally{}
	loop(rt, w, nil, c.budget(0.15), r, &t, id)
	_ = rt.Shutdown(context.Background()) // every job has been waited for
	if t.ok > 0 {
		s := summarize(t.lat)
		r.add("rtrace.record_overhead_pct", 100*(s.Median/untracedP50-1), s.N, fmt.Sprintf("p50 %.4g ms with a recorder vs %.4g ms without", s.Median, untracedP50))
	}

	var events, rejects int
	var verify time.Duration
	for i := 0; i < verifyJobs; i++ {
		rec := dfdeques.NewTraceRecorder(p, 1<<18)
		rt, err := newRT(p, w.k, c.seed+int64(i), false, rec)
		if err != nil {
			return err
		}
		o := runJob(rt, w, nil, *id)
		*id++
		_ = rt.Shutdown(context.Background())
		r.attempted++
		if o.err != nil || o.bad != nil {
			r.fail("recorded job: %v%v", o.err, o.bad)
			continue
		}
		events += rec.Len()
		t0 := time.Now()
		_, verr := dfdeques.VerifyTrace(rec)
		verify += time.Since(t0)
		if verr != nil {
			rejects++
			r.fail("VerifyTrace rejects a recorded job: %v", verr)
		}
	}
	r.add("rtrace.events_per_job", float64(events)/verifyJobs, verifyJobs, "")
	r.add("rtrace.verify_ms_per_job", float64(verify)/1e6/verifyJobs, verifyJobs, "")
	r.add("rtrace.verify_reject_jobs", float64(rejects), verifyJobs, fmt.Sprintf("of %d recorded jobs", verifyJobs))
	return nil
}
