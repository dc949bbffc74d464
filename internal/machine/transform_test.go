package machine

import (
	"testing"

	"dfdeques/internal/dag"
)

// splice runs the runtime transformation on a fresh thread of spec whose
// instruction pc is the big allocation of n bytes, returning the
// rewritten spec.
func splice(spec *dag.ThreadSpec, pc int, n, k int64) *dag.ThreadSpec {
	t := &Thread{Spec: spec, PC: pc}
	(&Machine{}).spliceDummies(t, n, k)
	if t.PC != 0 {
		panic("splice must restart the thread at its rewritten spec")
	}
	return t.Spec
}

func TestTransformRewritesLargeAlloc(t *testing.T) {
	spec := dag.NewThread("big").Work(2).Alloc(1000).Free(1000).Spec()
	got := splice(spec, 1, 1000, 100)
	if got == spec {
		t.Fatal("expected a rewritten spec")
	}
	if err := dag.Validate(got); err != nil {
		t.Fatal(err)
	}
	// Layout: fork(dummy tree), join, exempt alloc, then the rest of the
	// thread after the allocation.
	ops := []dag.Op{dag.OpFork, dag.OpJoin, dag.OpAlloc, dag.OpFree}
	if len(got.Instrs) != len(ops) {
		t.Fatalf("instrs = %d, want %d", len(got.Instrs), len(ops))
	}
	for i, op := range ops {
		if got.Instrs[i].Op != op {
			t.Fatalf("instr %d = %v, want %v", i, got.Instrs[i].Op, op)
		}
	}
	if !got.Instrs[2].Exempt || got.Instrs[2].N != 1000 {
		t.Fatal("rewritten alloc must be the same size and quota-exempt")
	}
	// The dummy tree must hold ⌈1000/100⌉ = 10 OpDummy leaves.
	if n := countDummies(got); n != 10 {
		t.Fatalf("dummy leaves = %d, want 10", n)
	}
}

func TestTransformDepthLogarithmic(t *testing.T) {
	// ⌈2^10 / 1⌉ dummies in a binary tree: depth grows by O(log), not O(n).
	spec := dag.NewThread("big").Alloc(1 << 10).Free(1 << 10).Spec()
	base := dag.Measure(spec)
	got := dag.Measure(splice(spec, 0, 1<<10, 1))
	// A binary tree of 1024 leaves adds ~4–5 actions of depth per level
	// (two forks and two joins), i.e. O(log n), not O(n).
	if got.D > base.D+6*10+10 {
		t.Errorf("transformed depth %d too large (base %d)", got.D, base.D)
	}
	if got.TotalThreads < 1024 {
		t.Errorf("threads = %d, want ≥ 1024 dummies", got.TotalThreads)
	}
}

func countDummies(spec *dag.ThreadSpec) int {
	var walk func(*dag.ThreadSpec) int
	walk = func(s *dag.ThreadSpec) int {
		// Count per dynamic instance (shared specs fork multiple times).
		n := 0
		for _, in := range s.Instrs {
			if in.Op == dag.OpDummy {
				n++
			}
			if in.Op == dag.OpFork {
				n += walk(in.Child)
			}
		}
		return n
	}
	return walk(spec)
}
