package grt_test

// Differential tests between schedules of the one runtime: the same
// seeded workload runs serially (one worker) and in parallel (four), and
// everything that is a workload invariant — computed results, work W,
// serial space S1, thread and dummy populations, a balanced heap — must
// agree exactly. Schedule-dependent quantities (steals, preemptions, heap
// high-water) may differ; invariants may not. The serial references are
// engine-independent: dag.Measure for the specs, a closed form for the
// computed sum.

import (
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/grt"
	"dfdeques/internal/workload"
)

// TestDifferentialSpecInvariants runs declarative workloads on one and on
// four workers under every scheduler and compares the invariant stats,
// pinning both against the 1DF measurement (W, S1). treelock carries
// scheduler-mediated Mutexes, so the lock wake path is covered too.
func TestDifferentialSpecInvariants(t *testing.T) {
	specs := map[string]*dag.ThreadSpec{
		"parfor": dag.ParFor("loop", 24, func(int) *dag.ThreadSpec {
			return dag.NewThread("leaf").Alloc(300).Work(4).Free(300).Spec()
		}),
		"dnc":      dncSpec(4, 2048),
		"treelock": workload.BarnesHutTreeBuild(workload.Medium),
	}
	for name, spec := range specs {
		want := dag.Measure(spec) // W and S1: properties of the dag, not the schedule
		for _, kind := range kinds() {
			cfg := grt.Config{Workers: 1, Sched: kind, K: 600, Seed: 42}
			serial, err := grt.RunSpec(cfg, spec, 1)
			if err != nil {
				t.Fatalf("%s/%v p1: %v", name, kind, err)
			}
			cfg.Workers = 4
			par, err := grt.RunSpec(cfg, spec, 1)
			if err != nil {
				t.Fatalf("%s/%v p4: %v", name, kind, err)
			}

			if serial.TotalThreads != par.TotalThreads {
				t.Errorf("%s/%v: total threads differ: p1=%d p4=%d",
					name, kind, serial.TotalThreads, par.TotalThreads)
			}
			if serial.DummyThreads != par.DummyThreads {
				t.Errorf("%s/%v: dummy threads differ: p1=%d p4=%d",
					name, kind, serial.DummyThreads, par.DummyThreads)
			}
			if serial.HeapLive != 0 || par.HeapLive != 0 {
				t.Errorf("%s/%v: heap not balanced: p1=%d p4=%d",
					name, kind, serial.HeapLive, par.HeapLive)
			}
			for _, st := range []grt.Stats{serial, par} {
				// ≥, not ==: the §3.3 dummy tree has non-dummy internal
				// nodes when an allocation exceeds K.
				if st.TotalThreads-st.DummyThreads < want.TotalThreads {
					t.Errorf("%s/%v: real threads = %d, 1DF measure says %d",
						name, kind, st.TotalThreads-st.DummyThreads, want.TotalThreads)
				}
				if st.HeapHW < want.HeapHW {
					t.Errorf("%s/%v: heap HW %d below serial floor S1=%d",
						name, kind, st.HeapHW, want.HeapHW)
				}
			}
		}
	}
}

// TestDifferentialComputedResults runs a real computation (not a spec) on
// four workers and demands the closed-form answer.
func TestDifferentialComputedResults(t *testing.T) {
	const n = 512
	var rec func(t *grt.T, lo, hi int64, out *int64)
	rec = func(t *grt.T, lo, hi int64, out *int64) {
		if hi-lo <= 8 {
			var s int64
			for i := lo; i < hi; i++ {
				s += i * i
			}
			*out = s
			return
		}
		mid := (lo + hi) / 2
		var a, b int64
		h := t.Fork(func(c *grt.T) { rec(c, lo, mid, &a) })
		rec(t, mid, hi, &b)
		t.Join(h)
		*out = a + b
	}
	const want = (n - 1) * n * (2*n - 1) / 6 // Σ_{i<n} i²
	for _, kind := range kinds() {
		var got int64
		_, err := grt.Run(grt.Config{Workers: 4, Sched: kind, Seed: 7},
			func(r *grt.T) { rec(r, 0, n, &got) })
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v: sum = %d, want %d", kind, got, want)
		}
	}
}

// TestDifferentialSingleWorkerDeterminism: with one worker there is no
// scheduling nondeterminism at all, so even the schedule-dependent stats
// must agree between two runs of the same seed.
func TestDifferentialSingleWorkerDeterminism(t *testing.T) {
	spec := dncSpec(5, 4096)
	for _, kind := range kinds() {
		cfg := grt.Config{Workers: 1, Sched: kind, K: 1000, Seed: 5}
		first, err := grt.RunSpec(cfg, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, err := grt.RunSpec(cfg, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if first.TotalThreads != again.TotalThreads ||
			first.DummyThreads != again.DummyThreads ||
			first.HeapHW != again.HeapHW ||
			first.Preemptions != again.Preemptions {
			t.Errorf("%v: single-worker reruns diverge:\nfirst %+v\nagain %+v", kind, first, again)
		}
	}
}
