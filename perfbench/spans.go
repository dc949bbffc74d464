package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// The traced run's own spans. Each span records a call the benchmark
// makes into one layer's public surface (or a thread body it hands the
// runtime), with the span that caused it. Spans live in a fixed buffer
// claimed with one atomic add, so recording takes no lock; once the
// buffer is full further spans are counted as dropped and not kept.

// spanKind names a span; layerOf maps it to a layer of the repository.
type spanKind uint8

const (
	spJob      spanKind = iota // bench: one job, Submit to Wait returning
	spSubmit                   // grt: Runtime.Submit
	spWait                     // grt: Job.Wait
	spThread                   // app: a thread body the benchmark wrote
	spFork                     // grt: Thread.Fork
	spJoin                     // grt: Thread.Join
	spDue                      // bench: an open-loop request, due time to response
	spRequest                  // serve: one HTTP round trip
	spScrape                   // serve: one /metrics scrape
	spSimulate                 // sim: one dfdeques.Simulate call
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"job", "grt.submit", "grt.wait", "thread", "grt.fork", "grt.join", "due", "serve.request", "serve.scrape", "sim.simulate"}

func (k spanKind) String() string { return spanNames[k] }

func layerOf(k spanKind) string {
	switch k {
	case spJob, spDue:
		return "bench"
	case spThread:
		return "app"
	case spRequest, spScrape:
		return "serve"
	case spSimulate:
		return "sim"
	}
	return "grt"
}

type span struct {
	start, end int64 // ns since the log's epoch; end 0 while open
	parent     int32 // -1 for a root span
	job        int32
	kind       spanKind
}

type spanLog struct {
	epoch   time.Time
	buf     []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{epoch: time.Now(), buf: make([]span, capacity)}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// begin opens a span and returns its id, or -1 when l is nil or full.
// The id may be passed as a parent before the span ends.
func (l *spanLog) begin(k spanKind, parent, job int32) int32 {
	if l == nil {
		return -1
	}
	i := l.n.Add(1) - 1
	if i >= int64(len(l.buf)) {
		l.dropped.Add(1)
		return -1
	}
	l.buf[i] = span{start: l.now(), parent: parent, job: job, kind: k}
	return int32(i)
}

// beginAt is begin with an explicit start time.
func (l *spanLog) beginAt(k spanKind, parent, job int32, t time.Time) int32 {
	id := l.begin(k, parent, job)
	if id >= 0 {
		l.buf[id].start = int64(t.Sub(l.epoch))
	}
	return id
}

// used returns how many spans have been claimed, full or not.
func (l *spanLog) used() int64 {
	if l == nil {
		return 0
	}
	return l.n.Load()
}

// room reports whether n more spans fit.
func (l *spanLog) room(n int64) bool { return l.n.Load()+n <= int64(len(l.buf)) }

// end closes span id; -1 is ignored.
func (l *spanLog) end(id int32) {
	if id >= 0 {
		l.buf[id].end = l.now()
	}
}

// spans returns the recorded spans; call only after every span ended.
func (l *spanLog) spans() []span {
	n := l.n.Load()
	if n > int64(len(l.buf)) {
		n = int64(len(l.buf))
	}
	return l.buf[:n]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (children on other
// goroutines may overlap each other and stick out; only the union of
// their clipped intervals is subtracted).
func selfTimes(sp []span) []int64 {
	kids := make([][]int32, len(sp))
	for i, s := range sp {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(sp))
	var iv [][2]int64
	for i, s := range sp {
		iv = iv[:0]
		for _, c := range kids[i] {
			a, b := max(sp[c].start, s.start), min(sp[c].end, s.end)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, hi int64 = 0, s.start
		for _, v := range iv {
			if v[1] <= hi {
				continue
			}
			covered += v[1] - max(v[0], hi)
			hi = v[1]
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// spanReport summarizes a traced run's spans: per kind the count and
// median self time, per layer the self time per job.
type spanReport struct {
	selfNs  [numSpanKinds][]float64
	jobs    int
	dropped int64
}

func (l *spanLog) report() spanReport {
	sp := l.spans()
	self := selfTimes(sp)
	var r spanReport
	seen := map[int32]bool{}
	for i, s := range sp {
		r.selfNs[s.kind] = append(r.selfNs[s.kind], float64(self[i]))
		seen[s.job] = true
	}
	r.jobs = len(seen)
	r.dropped = l.dropped.Load()
	return r
}

// medianSelf returns the median self time of kind k, in ns, and its
// sample count.
func (r spanReport) medianSelf(k spanKind) (float64, int) {
	s := summarize(r.selfNs[k])
	return s.Median, s.N
}

// lines renders the self-time table printed by a traced run.
func (r spanReport) lines() []string {
	out := []string{fmt.Sprintf("spans: %d jobs traced, %d spans dropped after the buffer filled", r.jobs, r.dropped)}
	layers := map[string]float64{}
	var total float64
	for k := spanKind(0); k < numSpanKinds; k++ {
		xs := r.selfNs[k]
		if len(xs) == 0 {
			continue
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		layers[layerOf(k)] += sum
		total += sum
		s := summarize(xs)
		out = append(out, fmt.Sprintf("  span %-14s n=%-8d self p50 %10.0f ns  self total %9.3f ms", k, s.N, s.Median, sum/1e6))
	}
	names := make([]string, 0, len(layers))
	for name := range layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		perJob := layers[name] / float64(max(r.jobs, 1))
		out = append(out, fmt.Sprintf("  layer %-6s self %9.3f ms/job  %5.1f%% of traced self time", name, perJob/1e6, 100*layers[name]/total))
	}
	return out
}

// finishSpans appends the self-time table to r and writes the spans
// under c.spanDir, when set.
func finishSpans(c runConfig, r *report, sp *spanLog) error {
	r.lines = append(r.lines, sp.report().lines()...)
	if c.spanDir == "" {
		return nil
	}
	path, err := sp.write(c.spanDir, fmt.Sprintf("seed%d.tsv", c.seed))
	if err != nil {
		return err
	}
	r.logf("spans written to %s", path)
	return nil
}

// write saves the spans as tab-separated rows under dir.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tjob\tname\tstart_ns\tend_ns")
	for i, s := range l.spans() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.job, s.kind, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
