package main

import (
	"fmt"
	"strings"
	"time"

	"dfdeques"
	"dfdeques/internal/workload"
)

// sim-paper: dfdeques.Simulate over the seven paper dags at fine grain
// with Procs=8, K=3000 and the cache model on, under DFD, ADF and WS, on
// one goroutine. A job is one Simulate call; the jobs sweep the 21 (dag,
// scheduler) pairs again and again, each sweep pair with a fresh set of
// seeds drawn from --seed, so a run's latency distribution averages over
// many schedules rather than resting on one.

const (
	simProcs = 8
	simK     = 3000
)

var simScheds = []string{"DFD", "ADF", "WS"}

type simDag struct {
	name   string
	spec   *dfdeques.Program
	serial dfdeques.ProgramMetrics
	// ref is the one-processor DFD run: its action count is W plus the
	// dummy-thread actions a finite K adds, and its Steps are T1.
	ref dfdeques.SimMetrics
}

type simJob struct {
	dag   int
	sched string
	want  int64 // expected simulated actions
}

// simSeed is the Simulate seed of job i in seed set n of a run.
func simSeed(seed int64, n, i int) int64 {
	return int64(splitmix(uint64(seed)<<32+uint64(n)<<8+uint64(i)) >> 1)
}

// simCost is the cost model: the §5 extensions the lab's realism config
// uses (per-processor cache with miss penalty, steal and queue latency,
// thread stacks).
func simCost(procs int, sched string, k, seed int64) dfdeques.SimConfig {
	if sched == "WS" {
		k = 0
	}
	return dfdeques.SimConfig{
		Procs: procs, Scheduler: sched, K: k, Seed: seed,
		MissPenalty:  20,
		Cache:        dfdeques.CacheConfig{CapacityBytes: 32 << 10, LineBytes: 64},
		StackBytes:   8192,
		StealLatency: 6,
		QueueLatency: 3,
	}
}

func setupSim(seed int64, tiny bool) ([]simDag, []simJob, error) {
	g := workload.Fine
	if tiny {
		g = workload.Medium
	}
	var dags []simDag
	var jobs []simJob
	for i, w := range workload.All() {
		d := simDag{name: w.Name, spec: w.Build(g)}
		d.serial = dfdeques.MeasureProgram(d.spec)
		ref, err := dfdeques.Simulate(d.spec, simCost(1, "DFD", simK, seed))
		if err != nil {
			return nil, nil, fmt.Errorf("%s serial reference: %w", w.Name, err)
		}
		d.ref = ref
		dags = append(dags, d)
		for _, s := range simScheds {
			want := ref.Actions
			if s == "WS" {
				want = d.serial.W // K = ∞: no dummy threads
			}
			jobs = append(jobs, simJob{dag: i, sched: s, want: want})
		}
	}
	return dags, jobs, nil
}

// simTally accumulates a sim-paper phase. Sweeps run in pairs: an even
// sweep draws a fresh seed set, the odd sweep after it repeats the set
// and must reproduce every metric; the per-set figures come from the
// even sweeps.
type simTally struct {
	lat        []float64   // ms per correct Simulate call
	perJob     [][]float64 // the same, per (dag, scheduler) pair
	perSched   map[string][]float64
	actions    int64
	simTime    time.Duration
	ok         int
	speedups   []float64 // T1/T8 per (dag, scheduler, seed set)
	heapRatios []float64 // per seed set: largest DFD HeapHW/S1
	counts     dfdeques.SimMetrics
	firsts     int       // calls the counts sum over
	rate       []float64 // correct calls per second, per sweep pair
}

// typicalMs is sim-paper's job latency: the geometric mean over the
// (dag, scheduler) pairs of each pair's median Simulate call. The pairs'
// times differ several-fold, so the median of the pooled calls falls in a
// gap between two pairs and jumps between them with small shifts in host
// speed; this mean moves only in proportion.
func (t *simTally) typicalMs() float64 {
	var meds []float64
	for _, xs := range t.perJob {
		if len(xs) > 0 {
			meds = append(meds, summarize(xs).Median)
		}
	}
	return geomean(meds)
}

func runSimPaper(c runConfig) (*report, error) {
	r := &report{correct: true}
	type env struct {
		dags []simDag
		jobs []simJob
	}
	e, setups, err := measureSetup(setupReps, func() (env, error) {
		dags, jobs, err := setupSim(c.seed, c.tiny)
		return env{dags, jobs}, err
	}, func(env) {})
	if err != nil {
		return nil, err
	}
	nextSet := 0
	run := func(d time.Duration, sp *spanLog) *simTally {
		t := &simTally{perJob: make([][]float64, len(e.jobs)), perSched: map[string][]float64{}}
		start := time.Now()
		prev := make([]*dfdeques.SimMetrics, len(e.jobs))
		var pairStart time.Time
		var pairOK int
		for sweep := 0; time.Since(start) < d || sweep%2 == 1; sweep++ {
			repeat := sweep%2 == 1
			if !repeat {
				nextSet++
				clear(prev)
				pairStart, pairOK = time.Now(), t.ok
			}
			heap := 0.0
			for i, j := range e.jobs {
				dag := e.dags[j.dag]
				s := sp.begin(spSimulate, -1, int32(nextSet))
				t0 := time.Now()
				m, err := dfdeques.Simulate(dag.spec, simCost(simProcs, j.sched, simK, simSeed(c.seed, nextSet, i)))
				dt := time.Since(t0)
				sp.end(s)
				r.attempted++
				if err != nil {
					r.fail("%s/%s: %v", dag.name, j.sched, err)
					continue
				}
				if !repeat {
					prev[i] = &m
				} else if prev[i] != nil && m != *prev[i] {
					r.wrong("%s/%s: a repeated seed gave different metrics", dag.name, j.sched)
					continue
				}
				if m.Actions-m.SpinActions != j.want {
					// Known defect: a lock handed to a blocked waiter skips
					// the waiter's acquire action, so dags with contended
					// locks come up short. Counted, not fatal.
					r.fail("%s/%s: simulated actions %d, want %d (W=%d)", dag.name, j.sched, m.Actions-m.SpinActions, j.want, dag.serial.W)
					continue
				}
				t.ok++
				ms := float64(dt) / 1e6
				t.lat = append(t.lat, ms)
				t.perJob[i] = append(t.perJob[i], ms)
				t.perSched[j.sched] = append(t.perSched[j.sched], ms)
				t.actions += m.Actions
				t.simTime += dt
				if repeat {
					continue
				}
				t.speedups = append(t.speedups, float64(dag.ref.Steps)/float64(m.Steps))
				t.counts.Steals += m.Steals
				t.counts.FailedSteals += m.FailedSteals
				t.counts.LocalDispatches += m.LocalDispatches
				t.counts.DummyThreads += m.DummyThreads
				t.counts.Preemptions += m.Preemptions
				t.firsts++
				if j.sched == "DFD" && dag.serial.HeapHW > 0 {
					heap = max(heap, float64(m.HeapHW)/float64(dag.serial.HeapHW))
				}
			}
			if !repeat {
				t.heapRatios = append(t.heapRatios, heap)
			} else {
				t.rate = append(t.rate, float64(t.ok-pairOK)/time.Since(pairStart).Seconds())
			}
		}
		return t
	}

	phase := c.budget(1)
	if c.trace {
		// An untraced phase for the reference p50 and the counters, the
		// same with spans, then the calibrations.
		phase = c.budget(0.4)
	}
	u := run(phase, nil)
	if len(u.lat) == 0 {
		return nil, fmt.Errorf("no simulation completed correctly (%d attempted)", r.attempted)
	}
	s := summarize(u.lat)
	if !c.trace {
		ss := summarize(setups)
		r.add("setup_s", ss.Median, ss.N, "median of repeated set-ups")
		r.add("lat_p50_ms", u.typicalMs(), s.N, fmt.Sprintf("geomean over (dag, scheduler) of each pair's median Simulate call; pooled p50 %.4g, quartiles %.4g–%.4g", s.Median, s.Q1, s.Q3))
		r.add("lat_p99_ms", s.Tail, s.N, fmt.Sprintf("p%g", s.TailPct))
		rate := summarize(u.rate)
		r.add("jobs_per_s", rate.Median, rate.N, "correct Simulate calls per second, median over sweep pairs")
		r.add("speedup", geomean(u.speedups), len(u.speedups), fmt.Sprintf("simulated T1/T%d, geomean over (dag, scheduler, seed set)", simProcs))
		var hsum float64
		for _, h := range u.heapRatios {
			hsum += h
		}
		r.add("heap_hw_over_s1", hsum/float64(len(u.heapRatios)), len(u.heapRatios), fmt.Sprintf("mean over seed sets of the largest simulated DFD HeapHW/S1, K=%d p=%d", simK, simProcs))
		r.add("ok_frac", float64(u.ok)/float64(r.attempted), int(r.attempted), "")
		for _, d := range e.dags {
			r.logf("dag %-12s W=%-7d D=%-5d S1=%-7d Thm 4.4 S1+min(K,S1)*p*D=%d", d.name, d.serial.W, d.serial.D, d.serial.HeapHW,
				d.serial.HeapHW+min(simK, d.serial.HeapHW)*simProcs*d.serial.D)
		}
		return r, nil
	}

	r.add("e2e.lat_p99_ms", s.Tail, s.N, fmt.Sprintf("p%g of the untraced phase", s.TailPct))
	for _, name := range simScheds {
		ss := summarize(u.perSched[name])
		r.add("sim.simulate_ms_"+strings.ToLower(name), ss.Median, ss.N, "median Simulate call")
	}
	r.add("sim.actions_per_s", float64(u.actions)/u.simTime.Seconds(), len(u.lat), "simulated actions per second of Simulate time")
	n, m := float64(u.firsts), u.counts
	r.add("core.steals_per_job", float64(m.Steals)/n, u.firsts, "the simulator's serial core.Pool")
	if m.Steals+m.FailedSteals > 0 {
		r.add("core.failed_steal_ratio", float64(m.FailedSteals)/float64(m.Steals+m.FailedSteals), int(m.Steals+m.FailedSteals), "")
	}
	r.add("policy.dummy_threads_per_job", float64(m.DummyThreads)/n, u.firsts, "")
	r.add("policy.preemptions_per_job", float64(m.Preemptions)/n, u.firsts, "")
	if m.LocalDispatches+m.Steals > 0 {
		r.add("policy.local_dispatch_share", float64(m.LocalDispatches)/float64(m.LocalDispatches+m.Steals), int(m.LocalDispatches+m.Steals), "")
	}
	sp := newSpanLog(1 << 16)
	t := run(phase, sp)
	r.add("bench.trace_overhead_pct", 100*(t.typicalMs()/u.typicalMs()-1), len(t.lat), fmt.Sprintf("p50 %.4g ms traced vs %.4g ms untraced", t.typicalMs(), u.typicalMs()))
	if err := finishSpans(c, r, sp); err != nil {
		return nil, err
	}
	calibrate(c, r)
	return r, nil
}
