package sched_test

import (
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/machine"
	"dfdeques/internal/sched"
	"dfdeques/internal/workload"
)

func TestClusteredRunsToCompletion(t *testing.T) {
	spec := dncDag(8, 2048, 16)
	want := dag.Measure(spec)
	for _, groups := range []int{1, 2, 4} {
		s := &sched.DFDeques{Groups: groups}
		m := machine.New(machine.Config{Procs: 8, Seed: 1}, s)
		met, err := m.Run(spec)
		if err != nil {
			t.Fatalf("groups=%d: %v", groups, err)
		}
		if met.Actions != want.W {
			t.Errorf("groups=%d: actions = %d, want %d", groups, met.Actions, want.W)
		}
	}
}

// TestClusteredSingleGroupBehavesLikeDFD: one group is the plain DFDeques
// path, schedule for schedule — on a nested-parallel dag and on Barnes
// Hut, whose lock wake-ups enter R at their priority position either way.
func TestClusteredSingleGroupBehavesLikeDFD(t *testing.T) {
	bh, _ := workload.ByName("Barnes Hut")
	for _, c := range []struct {
		name  string
		spec  *dag.ThreadSpec
		procs int
	}{
		{"dnc", dncDag(8, 4096, 16), 4},
		{"Barnes Hut", bh.Build(workload.Medium), 8},
	} {
		cl := &sched.DFDeques{K: 2048, Groups: 1}
		metC, err := machine.New(machine.Config{Procs: c.procs, Seed: 2}, cl).Run(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		df := sched.NewDFDeques(2048)
		metD, err := machine.New(machine.Config{Procs: c.procs, Seed: 2}, df).Run(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if metC.Steps != metD.Steps || metC.HeapHW != metD.HeapHW || metC.Steals != metD.Steals {
			t.Errorf("%s: 1-group clustered steps/heap/steals = %d/%d/%d, DFD = %d/%d/%d", c.name,
				metC.Steps, metC.HeapHW, metC.Steals, metD.Steps, metD.HeapHW, metD.Steals)
		}
	}
}

func TestClusteredCrossStealsHappenAndAreRarer(t *testing.T) {
	// Small K forces frequent deque give-ups, so steady-state stealing
	// dominates the initial cross-group work migration.
	spec := dncDag(10, 8192, 8)
	s := &sched.DFDeques{K: 1024, Groups: 4}
	m := machine.New(machine.Config{Procs: 8, Seed: 3}, s)
	met, err := m.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.CrossSteals() == 0 {
		t.Error("expected some cross-group steals (only group 0 holds the root)")
	}
	if s.CrossSteals() >= met.Steals {
		t.Errorf("cross steals %d should be a strict subset of all steals %d", s.CrossSteals(), met.Steals)
	}
	// Affinity: most steals should stay local once work has spread.
	if s.CrossSteals()*2 > met.Steals {
		t.Errorf("cross steals %d / %d — affinity not effective", s.CrossSteals(), met.Steals)
	}
}

func TestClusteredCrossLatencySlowsRun(t *testing.T) {
	spec := dncDag(8, 0, 64)
	run := func(lat int64) int64 {
		s := &sched.DFDeques{Groups: 4, CrossLatency: lat}
		m := machine.New(machine.Config{Procs: 8, Seed: 4}, s)
		met, err := m.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return met.Steps
	}
	fast, slow := run(0), run(200)
	if slow <= fast {
		t.Errorf("cross latency should slow the run: %d vs %d", slow, fast)
	}
}

func TestClusteredInvariants(t *testing.T) {
	spec := dncDag(7, 4096, 16)
	s := &sched.DFDeques{K: 1024, Groups: 2}
	m := machine.New(machine.Config{Procs: 8, Seed: 5, CheckInvariants: true}, s)
	if _, err := m.Run(spec); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredOnRealBenchmarks(t *testing.T) {
	for _, w := range []string{"Dense MM", "Sparse MVM", "Barnes Hut"} {
		wl, _ := workload.ByName(w)
		spec := wl.Build(workload.Medium)
		s := &sched.DFDeques{K: 3000, Groups: 2}
		m := machine.New(machine.Config{Procs: 8, Seed: 6}, s)
		if _, err := m.Run(spec); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
	}
}

func TestClusteredGroupsClampedToProcs(t *testing.T) {
	spec := dncDag(5, 0, 8)
	s := &sched.DFDeques{Groups: 64} // more groups than processors
	m := machine.New(machine.Config{Procs: 4, Seed: 7}, s)
	if _, err := m.Run(spec); err != nil {
		t.Fatal(err)
	}
}
