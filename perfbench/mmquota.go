package main

import (
	"fmt"
	"sync/atomic"

	"dfdeques"
	"dfdeques/internal/grt"
	"dfdeques/internal/workload"
)

// mm-quota: the paper's Dense MM at fine grain, interpreted on the
// runtime with K = 500 B. Quota exhaustion puts the dummy threads, the
// steals and the R-spine operations on the critical path; this is where
// the paper's space claim is measured. Every job must report the exact
// thread and dummy counts of the serial simulation and a balanced heap.

const mmK = 500

func runMMQuota(c runConfig) (*report, error) {
	spec := workload.DenseMM(workload.Fine)
	warmup := 10
	if c.tiny {
		spec, warmup = workload.DenseMM(workload.Medium), 1
	}
	serial := dfdeques.MeasureProgram(spec)
	ref, err := dfdeques.Simulate(spec, dfdeques.SimConfig{Procs: 1, Scheduler: "DFD", K: mmK})
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	body, err := grt.SpecBody(spec, 0)
	if err != nil {
		return nil, err
	}
	w := &rtWorkload{k: mmK, s1: serial.HeapHW, depth: serial.D, warmup: warmup}
	w.job = func(sp *spanLog, id int32, parent *atomic.Int32) (func(*dfdeques.Thread), func(dfdeques.JobStats) error) {
		root := body
		if sp != nil {
			root = func(t *dfdeques.Thread) {
				ts := sp.begin(spThread, parent.Load(), id)
				body(t)
				sp.end(ts)
			}
		}
		return root, func(js dfdeques.JobStats) error {
			if js.TotalThreads != ref.TotalThreads || js.DummyThreads != ref.DummyThreads || js.HeapLive != 0 {
				return fmt.Errorf("mm-quota threads %d dummies %d heap live %d, want %d %d 0",
					js.TotalThreads, js.DummyThreads, js.HeapLive, ref.TotalThreads, ref.DummyThreads)
			}
			return nil
		}
	}
	r := &report{correct: true}
	r.logf("job: Dense MM (%d threads, %d dummies expected), W=%d D=%d S1=%d B, K=%d", ref.TotalThreads, ref.DummyThreads, serial.W, serial.D, serial.HeapHW, mmK)
	return r, runRuntimeWorkload(c, w, r)
}
