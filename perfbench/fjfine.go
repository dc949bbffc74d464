package main

import (
	"fmt"
	"sync/atomic"

	"dfdeques"
)

// fj-fine: a depth-12 binary fork tree per job (4096 leaves), each leaf
// ~200 integer-mix iterations and no allocation. The root declares the
// job's one allocation, the 4096-slot result vector, so the job's serial
// space S1 is that vector and K = 1 MiB never preempts. Nearly all
// scheduler work is the inline fork/join path and owner-side deque ops.

const fjK = 1 << 20

type fjShape struct{ depth, iters int }

func (s fjShape) leaves() int { return 1 << s.depth }

func (s fjShape) vecBytes() int64 { return int64(s.leaves()) * 8 }

// mix is the leaf's work: iters rounds of a 64-bit mixing step.
func (s fjShape) mix(x uint64) uint64 {
	for i := 0; i < s.iters; i++ {
		x ^= x >> 31
		x *= 0x9e3779b97f4a7c15
		x ^= x >> 29
	}
	return x
}

// fjJob is the untraced job: its thread bodies are built once, so a job
// allocates nothing on the Go heap and the garbage collector's work
// comes from the runtime alone. Jobs run one at a time, so they share
// the result vector.
type fjJob struct {
	s       fjShape
	in, res []uint64
	root    func(*dfdeques.Thread)
}

func newFJJob(s fjShape, in []uint64) *fjJob {
	f := &fjJob{s: s, in: in, res: make([]uint64, s.leaves())}
	f.root = f.build(0, s.leaves())
	return f
}

// build returns the body that fills res[lo:lo+n] by forking the left
// half and running the right half itself, then joining.
func (f *fjJob) build(lo, n int) func(*dfdeques.Thread) {
	if n == 1 {
		return func(*dfdeques.Thread) { f.res[lo] = f.s.mix(f.in[lo]) }
	}
	left, right := f.build(lo, n/2), f.build(lo+n/2, n/2)
	return func(t *dfdeques.Thread) {
		h := t.Fork(left)
		right(t)
		t.Join(h)
	}
}

// fjTraced is fjJob with spans around every Fork and Join and every
// thread body. A child's span hangs under its parent's Join span when the
// child starts after the parent entered Join (the inline case), else
// under the parent's thread span.
type fjTraced struct {
	s       fjShape
	sp      *spanLog
	job     int32
	in, res []uint64
}

func (f *fjTraced) tree(t *dfdeques.Thread, lo, n int, self int32) {
	if n == 1 {
		f.res[lo] = f.s.mix(f.in[lo])
		return
	}
	half := n / 2
	var join atomic.Int32
	join.Store(-1)
	fs := f.sp.begin(spFork, self, f.job)
	h := t.Fork(func(c *dfdeques.Thread) {
		parent := join.Load()
		if parent < 0 {
			parent = self
		}
		ts := f.sp.begin(spThread, parent, f.job)
		f.tree(c, lo, half, ts)
		f.sp.end(ts)
	})
	f.sp.end(fs)
	f.tree(t, lo+half, half, self)
	js := f.sp.begin(spJoin, self, f.job)
	join.Store(js)
	t.Join(h)
	f.sp.end(js)
}

func runFJFine(c runConfig) (*report, error) {
	s := fjShape{depth: 12, iters: 200}
	warmup := 20
	if c.tiny {
		s, warmup = fjShape{depth: 6, iters: 20}, 2
	}
	in := make([]uint64, s.leaves())
	var want uint64
	for i := range in {
		in[i] = splitmix(uint64(c.seed)<<20 + uint64(i))
		want += s.mix(in[i])
	}
	plain := newFJJob(s, in)
	w := &rtWorkload{k: fjK, s1: s.vecBytes(), depth: int64(s.depth), warmup: warmup}
	w.job = func(sp *spanLog, id int32, parent *atomic.Int32) (func(*dfdeques.Thread), func(dfdeques.JobStats) error) {
		var sum uint64
		root := func(t *dfdeques.Thread) {
			t.Alloc(s.vecBytes())
			res := plain.res
			if sp == nil {
				plain.root(t)
			} else {
				res = make([]uint64, s.leaves())
				ts := sp.begin(spThread, parent.Load(), id)
				(&fjTraced{s: s, sp: sp, job: id, in: in, res: res}).tree(t, 0, len(res), ts)
				sp.end(ts)
			}
			for _, v := range res {
				sum += v
			}
			clear(res)
			t.Free(s.vecBytes())
		}
		check := func(js dfdeques.JobStats) error {
			switch {
			case sum != want:
				return fmt.Errorf("fj-fine checksum %#x, want %#x", sum, want)
			case js.TotalThreads != int64(s.leaves()) || js.DummyThreads != 0:
				return fmt.Errorf("fj-fine threads %d (%d dummies), want %d (0)", js.TotalThreads, js.DummyThreads, s.leaves())
			case js.HeapLive != 0 || js.HeapHW != s.vecBytes():
				return fmt.Errorf("fj-fine heap live %d hw %d, want 0 and %d", js.HeapLive, js.HeapHW, s.vecBytes())
			}
			return nil
		}
		return root, check
	}
	r := &report{correct: true}
	r.logf("job: depth-%d fork tree, %d leaves x %d mix rounds, K=%d, serial checksum %#x", s.depth, s.leaves(), s.iters, fjK, want)
	return r, runRuntimeWorkload(c, w, r)
}

// splitmix is the SplitMix64 finalizer, the benchmark's input generator.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
