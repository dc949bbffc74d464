package policy_test

import (
	"testing"

	"dfdeques/internal/policy"
)

// TestPolicyLockStats pins Stats.LockOps for a scripted single-goroutine
// sequence of operations per policy, so the count means exactly "one per
// exclusive acquisition of the policy's serializing lock": the R spine
// for DFDeques (Seed, a promising steal, an empty own-pop's retire, a
// give-up, a woken-thread insert — never a fork, a join claim or a
// non-empty own-pop), the queue mutex for ADF and FIFO (every insert and
// every take that passes the lock-free emptiness screen), and the inject
// mutex for WS (injection only). LockNs must stay 0 while timing is off;
// switching it on with MeasureLocks must not change the count.
func TestPolicyLockStats(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	for _, tc := range []struct {
		name   string
		pol    func() policy.Policy[int]
		script func(p policy.Policy[int])
		want   int64
	}{
		{"DFDeques", func() policy.Policy[int] { return policy.NewDFD(1, 100, less, 1) }, func(p policy.Policy[int]) {
			p.Seed(10)               // spine: 1
			p.Acquire(0)             // promising steal of 10: 2
			p.Fork(0, 5)             // own push: lock-free
			p.JoinPop(0, 5)          // inline claim: lock-free
			p.Fork(0, 6)             // own push: lock-free
			p.Next(0)                // non-empty own pop: lock-free
			p.Next(0)                // empty own pop retires the deque: 3
			p.Inject(20)             // priority-positioned insert: 4
			p.Acquire(0)             // steal of 20: 5
			p.Preempt(0, 20)         // push + give-up: 6
			p.Wake(0, 30)            // woken-thread insert: 7
			p.Terminate(0, 0, false) // worker owns no deque: lock-free
		}, 7},
		{"ADF", func() policy.Policy[int] { return policy.NewADF(1, 100, less) }, func(p policy.Policy[int]) {
			p.Seed(10)               // 1
			p.Fork(0, 5)             // 2
			p.Acquire(0)             // take 5: 3
			p.Next(0)                // take 10: 4
			p.Next(0)                // empty, screened: 4
			p.Wake(0, 30)            // 5
			p.Terminate(0, 0, false) // take 30: 6
		}, 6},
		{"FIFO", func() policy.Policy[int] { return policy.NewFIFO[int](100) }, func(p policy.Policy[int]) {
			p.Seed(10)               // 1
			p.Fork(0, 5)             // 2
			p.Acquire(0)             // take 10: 3
			p.Terminate(0, 40, true) // requeue 40 and take 5, one hold: 4
			p.Next(0)                // take 40: 5
			p.Next(0)                // empty, screened: 5
		}, 5},
		{"WS", func() policy.Policy[int] { return policy.NewWS[int](1, 1) }, func(p policy.Policy[int]) {
			p.Seed(10)      // inject: 1
			p.Inject(20)    // inject: 2
			p.Acquire(0)    // inbox claim: lock-free
			p.Fork(0, 5)    // own push: lock-free
			p.JoinPop(0, 5) // lock-free
			p.Acquire(0)    // inbox claim of 20: lock-free
			p.Acquire(0)    // nothing anywhere: lock-free
		}, 2},
	} {
		pol := tc.pol()
		tc.script(pol)
		st := pol.Stats()
		if st.LockOps != tc.want {
			t.Errorf("%s: LockOps = %d, want %d", tc.name, st.LockOps, tc.want)
		}
		if st.LockNs != 0 {
			t.Errorf("%s: LockNs = %d with timing off, want 0", tc.name, st.LockNs)
		}
		timed := tc.pol()
		timed.(interface{ MeasureLocks() }).MeasureLocks()
		tc.script(timed)
		if ops := timed.Stats().LockOps; ops != tc.want {
			t.Errorf("%s: timed LockOps = %d, want %d", tc.name, ops, tc.want)
		}
	}
}
