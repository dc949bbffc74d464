package grt

import (
	"context"
	"testing"
)

// TestPrioLessSkipsCompletedThread freezes the interleaving behind the
// nil *om.Record panic in om.Less: a pool peeks a thread off a deque end
// (PushWoken's scan, on behalf of Inject or Wake), and before it compares
// priorities the thread's owner pops it, runs it inline and completes
// it, retiring its record. The comparison must treat the retired thread
// as no anchor (false both ways) instead of dereferencing its record.
func TestPrioLessSkipsCompletedThread(t *testing.T) {
	rt, err := New(Config{Workers: 1, Sched: DFDeques})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())
	var panicked any
	var before, after bool
	j, err := rt.Submit(context.Background(), func(root *T) {
		h := root.Fork(func(*T) {})
		peeked := h  // what a scan read off the deque bottom
		root.Join(h) // the owner claims h inline and completes it
		func() {
			defer func() { panicked = recover() }()
			before = rt.prioLess(root, peeked)
			after = rt.prioLess(peeked, root)
		}()
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if panicked != nil {
		t.Fatalf("comparing against a completed thread panicked: %v", panicked)
	}
	if before || after {
		t.Fatalf("prioLess with a retired record = (%v, %v), want (false, false)", before, after)
	}
}
