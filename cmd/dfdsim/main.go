// Command dfdsim runs one benchmark × scheduler × machine configuration on
// the simulator and prints the full metric set — the exploration tool
// behind the dfdlab tables.
//
// Usage:
//
//	dfdsim [flags]
//
// Flags:
//
//	-bench NAME   workload: one of the paper's seven ("Vol. Rend.",
//	              "Dense MM", "Sparse MVM", "FFTW", "FMM", "Barnes Hut",
//	              "Decision Tr."), or "synthetic" (§6) or "lowerbound"
//	              (Thm 4.5). Default "Dense MM".
//	-sched NAME   DFD | DFD-inf | WS | ADF | FIFO (default DFD)
//	-procs N      processors (default 8)
//	-k BYTES      memory threshold (default 3000)
//	-grain G      medium | fine (default fine)
//	-seed S       randomness seed (default 1)
//	-realism      enable the §5 cost-model extensions (cache, latencies)
//	-check        verify Lemma 3.1 invariants per timestep
//	-json         emit the run's metrics as one JSON object on stdout
//	              (bench.sh-snapshot field style: op/workers/k/seed plus
//	              snake_case metrics), suppressing the text report
//	-real         run on the real runtime (goroutine workers) instead of
//	              the simulator; prints grt.Stats with the contention
//	              counters. DFD-inf maps to DFDeques with K=∞; WS runs the
//	              per-worker-deque work stealer.
//	-workers N    real mode: worker count (default: -procs)
//	-measure      real mode: time scheduler-lock holds and steal waits
//	-trace FILE   real mode: record every scheduling event and write a
//	              Chrome trace_event JSON file (loadable in Perfetto /
//	              chrome://tracing; also replayable by dfdtrace -verify)
//	-tracebuf N   real mode: per-worker trace ring capacity in events
//	              (default 131072, rounded up to a power of two)
//	-timeout D    real mode: cancel the run if it exceeds this duration
//	              (e.g. 30s); the job's threads are poisoned and drained,
//	              and dfdsim exits non-zero with the deadline error
//	-scenario S   real mode: run an irregular-workload scenario instead of
//	              -bench: pipeline | stream | taskgraph (see
//	              internal/workload). The run's checksum is verified
//	              against the serial reference, and with -trace the
//	              summary includes the parallel cache-complexity report.
//	-scale N      scenario size multiplier (default 1)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dfdeques/internal/cache"
	"dfdeques/internal/dag"
	"dfdeques/internal/grt"
	"dfdeques/internal/machine"
	"dfdeques/internal/rtrace"
	"dfdeques/internal/sched"
	"dfdeques/internal/stats"
	"dfdeques/internal/workload"
)

func main() {
	bench := flag.String("bench", "Dense MM", "workload name")
	schedName := flag.String("sched", "DFD", "scheduler")
	procs := flag.Int("procs", 8, "processors")
	k := flag.Int64("k", 3000, "memory threshold K (bytes)")
	grain := flag.String("grain", "fine", "thread granularity: medium|fine")
	seed := flag.Int64("seed", 1, "seed")
	realism := flag.Bool("realism", false, "enable §5 cost-model extensions")
	check := flag.Bool("check", false, "check Lemma 3.1 invariants per timestep")
	jsonOut := flag.Bool("json", false, "emit metrics as a single JSON object")
	real := flag.Bool("real", false, "run on the real runtime instead of the simulator")
	workers := flag.Int("workers", 0, "real mode: workers (default -procs)")
	measure := flag.Bool("measure", false, "real mode: time scheduler-lock holds and steal waits")
	traceFile := flag.String("trace", "", "real mode: write Chrome trace_event JSON to FILE")
	tracebuf := flag.Int("tracebuf", 1<<17, "real mode: per-worker trace ring capacity (events)")
	timeout := flag.Duration("timeout", 0, "real mode: cancel the run after this duration (0 = none)")
	scenario := flag.String("scenario", "", "real mode: irregular scenario (pipeline|stream|taskgraph) instead of -bench")
	scale := flag.Int("scale", 1, "scenario size multiplier")
	flag.Parse()

	// Scheduler names are case-insensitive; canonicalize to the printed
	// spellings.
	switch strings.ToUpper(*schedName) {
	case "DFD":
		*schedName = "DFD"
	case "DFD-INF":
		*schedName = "DFD-inf"
	case "WS":
		*schedName = "WS"
	case "ADF":
		*schedName = "ADF"
	case "FIFO":
		*schedName = "FIFO"
	}

	g := workload.Fine
	if *grain == "medium" {
		g = workload.Medium
	}

	rc := realCfg{
		sched: *schedName, procs: *procs, workers: *workers, k: *k,
		seed: *seed, measure: *measure,
		trace: *traceFile, tracebuf: *tracebuf, json: *jsonOut,
		grain: g, bench: *bench, timeout: *timeout,
	}
	if *scenario != "" {
		if !*real {
			fmt.Fprintln(os.Stderr, "dfdsim: -scenario runs on the real runtime; add -real")
			os.Exit(2)
		}
		runScenario(*scenario, *scale, rc)
		return
	}

	var spec *dag.ThreadSpec
	switch *bench {
	case "synthetic":
		spec = workload.Synthetic(workload.DefaultSynthetic())
	case "lowerbound":
		spec = workload.LowerBound(workload.LowerBoundConfig{P: *procs, D: 60, A: *k})
	default:
		w, ok := workload.ByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "dfdsim: unknown benchmark %q\n", *bench)
			os.Exit(2)
		}
		spec = w.Build(g)
	}

	if *real {
		runReal(spec, rc)
		return
	}
	if *traceFile != "" {
		fmt.Fprintln(os.Stderr, "dfdsim: -trace records the real runtime; add -real (the simulator's lens is dfdtrace)")
		os.Exit(2)
	}
	if *timeout != 0 {
		fmt.Fprintln(os.Stderr, "dfdsim: -timeout cancels the real runtime's job; add -real (the simulator is deterministic)")
		os.Exit(2)
	}

	var s machine.Scheduler
	switch *schedName {
	case "DFD":
		s = sched.NewDFDeques(*k)
	case "DFD-inf":
		s = sched.NewDFDeques(0)
	case "WS":
		s = sched.NewWS()
	case "ADF":
		s = sched.NewADF(*k)
	case "FIFO":
		s = sched.NewFIFO()
	default:
		fmt.Fprintf(os.Stderr, "dfdsim: unknown scheduler %q\n", *schedName)
		os.Exit(2)
	}

	cfg := machine.Config{Procs: *procs, Seed: *seed, CheckInvariants: *check}
	if *realism {
		cfg.MissPenalty = 20
		cfg.Cache = cache.Config{CapacityBytes: 32 << 10, LineBytes: 64}
		cfg.StackBytes = 8192
		cfg.StealLatency = 6
		cfg.QueueLatency = 3
		cfg.MemPressureBytes = 2 << 20
		cfg.MemPressurePenalty = 60
	}

	sm := dag.Measure(spec)
	if !*jsonOut {
		fmt.Printf("benchmark: %s (%s grain)  W=%d D=%d S1=%d threads=%d\n",
			*bench, g, sm.W, sm.D, sm.HeapHW, sm.TotalThreads)
	}

	m := machine.New(cfg, s)
	met, err := m.Run(spec)
	if err != nil {
		die(err)
	}
	if *jsonOut {
		emitJSON(map[string]any{
			"op":                fmt.Sprintf("dfdsim/%s/%s", *bench, s.Name()),
			"workers":           *procs,
			"k":                 *k,
			"seed":              *seed,
			"steps":             met.Steps,
			"actions":           met.Actions,
			"heap_hw":           met.HeapHW,
			"space_hw":          met.SpaceHW,
			"serial_heap_hw":    sm.HeapHW,
			"max_live_threads":  met.MaxLiveThreads,
			"total_threads":     met.TotalThreads,
			"dummy_threads":     met.DummyThreads,
			"steals":            met.Steals,
			"failed_steals":     met.FailedSteals,
			"local_dispatches":  met.LocalDispatches,
			"preemptions":       met.Preemptions,
			"sched_granularity": met.SchedGranularity(),
		})
		return
	}
	fmt.Printf("scheduler: %s  p=%d  K=%d  seed=%d  realism=%v\n\n",
		s.Name(), *procs, *k, *seed, *realism)
	fmt.Printf("time (steps):        %d\n", met.Steps)
	fmt.Printf("actions:             %d\n", met.Actions)
	fmt.Printf("heap high-water:     %d bytes (%.2f × S1)\n", met.HeapHW, float64(met.HeapHW)/max(1, float64(sm.HeapHW)))
	fmt.Printf("space w/ stacks:     %d bytes\n", met.SpaceHW)
	fmt.Printf("max live threads:    %d (of %d total)\n", met.MaxLiveThreads, met.TotalThreads)
	fmt.Printf("steals / failed:     %d / %d\n", met.Steals, met.FailedSteals)
	fmt.Printf("own-deque dispatch:  %d\n", met.LocalDispatches)
	fmt.Printf("preemptions:         %d\n", met.Preemptions)
	fmt.Printf("dummy threads:       %d\n", met.DummyThreads)
	fmt.Printf("sched granularity:   %.2f actions/steal\n", met.SchedGranularity())
	if met.CacheHits+met.CacheMisses > 0 {
		fmt.Printf("cache miss rate:     %.1f%%\n", met.MissRate())
	}
}

// emitJSON writes one object on stdout — the machine-readable twin of the
// text report, field-styled after scripts/bench.sh snapshots.
func emitJSON(obj map[string]any) {
	if err := json.NewEncoder(os.Stdout).Encode(obj); err != nil {
		die(err)
	}
}

// realKind maps the canonical scheduler name to the runtime kind; the
// threshold is forced to 0 (∞) for DFD-inf and WS.
func realKind(rc realCfg) (grt.Kind, int64) {
	switch rc.sched {
	case "DFD":
		return grt.DFDeques, rc.k
	case "DFD-inf":
		return grt.DFDeques, 0 // DFDeques(∞): ordered deque list, no quota
	case "WS":
		return grt.WS, 0 // per-worker fixed deques, random-victim bottom steal
	case "ADF":
		return grt.ADF, rc.k
	case "FIFO":
		return grt.FIFO, rc.k
	}
	fmt.Fprintf(os.Stderr, "dfdsim: unknown scheduler %q\n", rc.sched)
	os.Exit(2)
	panic("unreachable")
}

type realCfg struct {
	sched          string
	procs, workers int
	k, seed        int64
	measure        bool
	trace          string
	tracebuf       int
	json           bool
	grain          workload.Grain
	bench          string
	timeout        time.Duration
}

// realRun is what runReal and runScenario share: the resolved scheduler,
// the runtime, its trace recorder, and the run's context.
type realRun struct {
	rc      realCfg
	kind    grt.Kind
	k       int64
	workers int
	rt      *grt.Runtime
	rec     *rtrace.Recorder
	ctx     context.Context
	cancel  context.CancelFunc
}

// startReal builds the runtime rc describes. Workers default to -procs;
// -trace attaches a recorder; -timeout puts a deadline on the run's
// context, which cancels the job mid-flight — its threads are poisoned at
// their next scheduling points and the runtime drains before Shutdown
// returns.
func startReal(rc realCfg) *realRun {
	r := &realRun{rc: rc, workers: rc.workers}
	r.kind, r.k = realKind(rc)
	if r.workers <= 0 {
		r.workers = rc.procs
	}
	cfg := grt.Config{
		Workers: r.workers, Sched: r.kind, K: r.k, Seed: rc.seed,
		MeasureContention: rc.measure,
	}
	if rc.trace != "" {
		if !rtrace.Enabled {
			fmt.Fprintln(os.Stderr, "dfdsim: built with -tags grtnotrace; tracing is compiled out")
			os.Exit(2)
		}
		r.rec = rtrace.NewRecorder(r.workers, rc.tracebuf)
		cfg.Probe = r.rec
	}
	r.ctx, r.cancel = context.Background(), func() {}
	if rc.timeout > 0 {
		r.ctx, r.cancel = context.WithTimeout(r.ctx, rc.timeout)
	}
	rt, err := grt.New(cfg)
	if err != nil {
		die(err)
	}
	r.rt = rt
	return r
}

// stop shuts the runtime down.
func (r *realRun) stop() {
	r.rt.Shutdown(context.Background())
	r.cancel()
}

// exportTrace writes the Chrome trace_event file of a -trace run and
// returns its summary (nil without -trace).
func (r *realRun) exportTrace() *rtrace.Summary {
	if r.rec == nil {
		return nil
	}
	f, err := os.Create(r.rc.trace)
	if err != nil {
		die(err)
	}
	meta, evs, dropped := r.rec.Meta(), r.rec.Events(), r.rec.Dropped()
	if err := rtrace.Export(f, meta, evs, dropped); err == nil {
		err = f.Close()
	}
	if err != nil {
		die(fmt.Errorf("writing trace: %w", err))
	}
	sum := rtrace.Summarize(meta, evs, dropped)
	return &sum
}

// jsonHead starts a run's JSON object with the fields every real run
// reports.
func (r *realRun) jsonHead(op string) map[string]any {
	return map[string]any{"op": op, "workers": r.workers, "k": r.k, "seed": r.rc.seed}
}

// runtimeLine is the text report's runtime line; label is padded to the
// report's column.
func (r *realRun) runtimeLine(label string) string {
	return fmt.Sprintf("%s%v  workers=%d  K=%d  seed=%d\n\n",
		label, r.kind, r.workers, r.k, r.rc.seed)
}

// runReal executes the workload on the real goroutine-backed runtime and
// prints its stats, including the contention counters; with -trace it
// records every scheduling event and writes a Chrome trace_event file.
func runReal(spec *dag.ThreadSpec, rc realCfg) {
	sm := dag.Measure(spec)
	if !rc.json {
		fmt.Printf("benchmark: %s (%s grain)  W=%d D=%d S1=%d threads=%d\n",
			rc.bench, rc.grain, sm.W, sm.D, sm.HeapHW, sm.TotalThreads)
	}
	root, err := grt.SpecBody(spec, 1)
	if err != nil {
		die(err)
	}
	r := startReal(rc)
	job, err := r.rt.Submit(r.ctx, root)
	if err != nil {
		die(err)
	}
	js, jerr := job.Wait()
	r.stop()
	if jerr != nil {
		die(jerr)
	}
	st := r.rt.Stats(js)
	sum := r.exportTrace()

	if rc.json {
		obj := r.jsonHead(fmt.Sprintf("dfdsim/%s/%v", rc.bench, r.kind))
		obj["total_threads"] = st.TotalThreads
		obj["dummy_threads"] = st.DummyThreads
		obj["max_live_threads"] = st.MaxLiveThreads
		obj["heap_hw"] = st.HeapHW
		obj["serial_heap_hw"] = sm.HeapHW
		obj["steals"] = st.Steals
		obj["failed_steals"] = st.FailedSteals
		obj["local_dispatches"] = st.LocalDispatches
		obj["preemptions"] = st.Preemptions
		obj["max_deques"] = st.MaxDeques
		obj["sched_lock_ops"] = st.SchedLockOps
		if rc.measure {
			obj["sched_lock_ns"] = st.SchedLockNs
			obj["steal_wait_ns"] = st.StealWaitNs
		}
		if sum != nil {
			obj["trace"] = sum
		}
		emitJSON(obj)
		return
	}
	fmt.Print(r.runtimeLine("runtime:   "))
	fmt.Printf("total threads:       %d (%d dummy)\n", st.TotalThreads, st.DummyThreads)
	fmt.Printf("max live threads:    %d\n", st.MaxLiveThreads)
	fmt.Printf("heap high-water:     %d bytes (%.2f × S1)\n",
		st.HeapHW, float64(st.HeapHW)/max(1, float64(sm.HeapHW)))
	fmt.Printf("heap final balance:  %d bytes\n", st.HeapLive)
	fmt.Printf("steals / failed:     %d / %d\n", st.Steals, st.FailedSteals)
	fmt.Printf("own-deque dispatch:  %d\n", st.LocalDispatches)
	fmt.Printf("preemptions:         %d\n", st.Preemptions)
	fmt.Printf("max deques:          %d\n", st.MaxDeques)
	fmt.Printf("sched lock acquires: %d\n", st.SchedLockOps)
	if rc.measure {
		fmt.Printf("sched lock held:     %s\n", stats.Ns(st.SchedLockNs))
		fmt.Printf("steal wait:          %s\n", stats.Ns(st.StealWaitNs))
	}
	if sum != nil {
		fmt.Printf("\ntrace: %d events (%d dropped) → %s\n", sum.Events, sum.Dropped, rc.trace)
		fmt.Printf("  steal success:     %.1f%%\n", 100*sum.StealSuccessRate)
		fmt.Printf("  sched granularity: %.2f dispatches/shared-acquire\n", sum.SchedGranularity)
		fmt.Printf("  deque high-water:  %d\n", sum.DequeHighWater)
		fmt.Printf("  promotions:        %d of %d threads grew a goroutine frame\n",
			sum.Promotions, sum.Threads)
		for _, w := range sum.PerWorker {
			fmt.Printf("  worker %d: busy %.1f%%, %d steals\n", w.Worker, 100*w.BusyFrac, w.Steals)
		}
		printCache(sum)
	}
}

// printCache renders the parallel cache-complexity section of a trace
// summary, when the stream carried data touches.
func printCache(sum *rtrace.Summary) {
	c := sum.Cache
	if c == nil {
		return
	}
	fmt.Printf("\ncache complexity (simulated %d KB/worker, %d B lines):\n",
		c.CapacityBytes>>10, c.LineBytes)
	fmt.Printf("  touches:           %d (%d bytes)\n", c.Touches, c.TouchedBytes)
	fmt.Printf("  parallel misses:   %d (%.1f%%)\n", c.ParMisses, 100*c.ParMissRate)
	fmt.Printf("  1DF serial misses: %d (%.1f%%)\n", c.SeqMisses, 100*c.SeqMissRate)
	fmt.Printf("  extra misses:      %d\n", c.ExtraMisses)
	fmt.Printf("  deviations:        %d (%d steals + %d queue takes + %d migrations)\n",
		c.Deviations, c.Steals, c.QueueTakes, c.Migrations)
}

// runScenario executes one irregular-workload scenario (internal/workload)
// on the real runtime, checks its checksum against the serial reference,
// and — when tracing — reports the parallel cache complexity of the run.
func runScenario(name string, scale int, rc realCfg) {
	sc, ok := workload.ScenarioByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "dfdsim: unknown scenario %q (pipeline|stream|taskgraph)\n", name)
		os.Exit(2)
	}
	scfg := workload.ScenarioConfig{Seed: rc.seed, Scale: scale}
	r := startReal(rc)
	checksum, err := sc.Run(r.ctx, r.rt, scfg)
	r.stop()
	if err != nil {
		die(fmt.Errorf("%s: %w", sc.Name, err))
	}
	if want := sc.Expect(scfg); checksum != want {
		die(fmt.Errorf("%s: checksum %#x does not match the serial reference %#x", sc.Name, checksum, want))
	}
	sum := r.exportTrace()

	if rc.json {
		obj := r.jsonHead(fmt.Sprintf("dfdsim/scenario/%s/%v", sc.Name, r.kind))
		obj["scale"] = scfg.Scale
		obj["jobs"] = sc.Jobs(scfg)
		obj["threads"] = sc.Threads(scfg)
		obj["checksum"] = fmt.Sprintf("%#x", checksum)
		obj["checksum_ok"] = true
		if sum != nil {
			obj["trace"] = sum
		}
		emitJSON(obj)
		return
	}
	fmt.Printf("scenario: %s (scale %d)  jobs=%d threads=%d\n",
		sc.Name, scfg.Scale, sc.Jobs(scfg), sc.Threads(scfg))
	fmt.Print(r.runtimeLine("runtime:  "))
	fmt.Printf("checksum: %#x (matches the serial reference)\n", checksum)
	if sum != nil {
		fmt.Printf("\ntrace: %d events (%d dropped) → %s\n", sum.Events, sum.Dropped, rc.trace)
		fmt.Printf("  threads:           %d\n", sum.Threads)
		fmt.Printf("  promotions:        %d of %d threads grew a goroutine frame\n",
			sum.Promotions, sum.Threads)
		fmt.Printf("  steal success:     %.1f%%\n", 100*sum.StealSuccessRate)
		fmt.Printf("  sched granularity: %.2f dispatches/shared-acquire\n", sum.SchedGranularity)
		printCache(sum)
	}
}

// die reports err and exits non-zero.
func die(err error) {
	fmt.Fprintf(os.Stderr, "dfdsim: %v\n", err)
	os.Exit(1)
}
