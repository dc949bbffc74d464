package policy_test

import (
	"sync"
	"testing"

	"dfdeques/internal/policy"
	"dfdeques/internal/rtrace"
)

// TestWSTracedStealsRecordClaimOrder races three thieves on one traced
// WS deque. Their claims take the bottom in push order, so replaying the
// recorded steals in sequence order must also meet the pushed items in
// push order: a thief whose record lands before an earlier claimant's
// would show the replay a steal of something other than the bottom
// (rtrace.Verify's "not the bottom" violation). The lock-free steal path
// records after its claim, so without serializing claim and record the
// two can invert whenever thieves race.
func TestWSTracedStealsRecordClaimOrder(t *testing.T) {
	const thieves, items = 3, 20000
	rec := rtrace.NewRecorder(thieves+1, 1<<16)
	pl := policy.NewWSPool[int](thieves + 1)
	pl.Instrument(rec, func(x int) int64 { return int64(x) })
	for i := 1; i <= items; i++ {
		pl.Push(0, i)
	}
	var wg sync.WaitGroup
	for w := 1; w <= thieves; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pl.At(0).SizeHint() > 0 {
				pl.StealFrom(w, 0)
			}
		}(w)
	}
	wg.Wait()
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events", rec.Dropped())
	}
	want := int64(1)
	for _, e := range rec.Events() {
		if e.Kind != rtrace.EvSteal {
			continue
		}
		if e.A != want {
			t.Fatalf("steal records out of claim order: %v, want item %d (the bottom)", e, want)
		}
		want++
	}
	if want != items+1 {
		t.Fatalf("recorded %d steals, want %d", want-1, items)
	}
}
