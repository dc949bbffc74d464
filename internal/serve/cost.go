package serve

// Cost-based load shedding prices a declared job shape before it touches
// the runtime, so a job that could never fit its tenant's headroom is
// refused at submit time (429 cost_shed) instead of being admitted,
// scheduled, and killed mid-run — the paper's space bound turned into an
// admission predicate.

import "dfdeques/internal/dag"

// price predicts the live-memory cost of a lowered program on p workers
// as Theorem 4.4's space expression
//
//	S1 + min(K, S1)·p·D
//
// where S1 is the serial (1DF) space of the declared tree — the peak of
// the live counter over the child-first serial walk, exactly the order
// the runtime executes an unstolen program — and D its maximum
// fork-nesting depth. S1 is what the job needs on one processor; each of
// the p workers can run ahead of the serial order by up to one steal's
// quota (K, or S1 if smaller) per nesting level. K = 0 (no quota) prices
// the whole S1 per worker and level.
//
// The price is a shedding heuristic, not a guarantee: the theorem's D is
// the dag's depth, not the fork nesting, and its bound hides a constant,
// so parallel overshoot beyond the price is still policed by the in-run
// budget kill (DESIGN.md, "The serving layer").
//
// Scenario jobs are not priced (cost 0): their footprints are internal
// to internal/workload, tiny by construction, and not declared in the
// request.
func price(spec *dag.ThreadSpec, k, p int64) int64 {
	var live, peak int64
	depth := walkCost(spec, &live, &peak, 0)
	slice := peak
	if k > 0 && k < peak {
		slice = k
	}
	return peak + slice*p*depth
}

// walkCost runs the child-first serial walk of spec, threading one live
// byte counter (and its peak = S1) through the whole program, and
// returns the maximum fork-nesting depth reached at or below spec.
func walkCost(spec *dag.ThreadSpec, live, peak *int64, d int64) int64 {
	maxD := d
	for _, in := range spec.Instrs {
		switch in.Op {
		case dag.OpAlloc:
			*live += in.N
			if *live > *peak {
				*peak = *live
			}
		case dag.OpFree:
			*live -= in.N
		case dag.OpFork:
			if cd := walkCost(in.Child, live, peak, d+1); cd > maxD {
				maxD = cd
			}
		}
	}
	return maxD
}
