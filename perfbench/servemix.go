package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dfdeques"
	"dfdeques/internal/grt"
	"dfdeques/internal/serve"
	"dfdeques/internal/serve/api"
	"dfdeques/internal/workload"
)

// serve-mix: an open loop of seeded Poisson arrivals against an
// in-process dfdserve over loopback, with ?wait=1 on at most nproc
// keep-alive connections driven by nproc sender goroutines. Four keyed
// tenants with unequal weights: most requests are small trees, some are
// checksum-verified scenarios, the "tight" tenant submits declared trees
// priced just inside its small budget, and a few oversized "whale"
// requests must be cost-shed (their 429s are correct outcomes). Each
// request is timed from when it was due to be sent.

const (
	serveK       = 1024
	tightBudget  = 16 << 10
	tightDepth   = 3
	tightAlloc   = 11 << 10 // price 11 KiB + K·3 = 14 KiB, inside 0.9 × 16 KiB
	bronzeBudget = 256 << 10
	whaleAlloc   = 512 << 10 // priced past bronze's whole budget
	serveLimit   = 250 * time.Millisecond
	serveTimeout = 5 * time.Second
)

// serveRate is the open loop's arrival rate in requests per second, set
// well below the closed-loop capacity of a one-worker server so the
// Workers=1 side of the speedup ratio does not build a backlog either.
const serveRate = 400

var serveTenants = map[string]serve.TenantConfig{
	"gold":   {Weight: 4, APIKey: "gold-key"},
	"silver": {Weight: 2, APIKey: "silver-key"},
	"bronze": {Weight: 1, MemBudget: bronzeBudget, APIKey: "bronze-key"},
	"tight":  {Weight: 1, MemBudget: tightBudget, APIKey: "tight-key"},
}

// serveReq is one request template with its expected outcome.
type serveReq struct {
	class   string // tree, scenario, tight, whale
	body    api.JobRequest
	threads int64  // tree: expected threads, dummies included
	dummies int64  // tree: expected dummy threads
	s1      int64  // tree: serial space of the declared program
	sum     string // scenario: expected checksum
}

// serveTemplates draws the request pool from the seed. The pool is
// stratified — every class, tree depth and scenario kind has a fixed
// count — so the seed varies the requests' parameters and order but not
// the mix. Scenario checksums come from their serial references.
func serveTemplates(seed int64) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	tree := func(tenant string, depth int, alloc, work int64, class string) serveReq {
		leaf := dfdeques.NewProgram("leaf")
		if alloc > 0 {
			leaf.Alloc(alloc)
		}
		leaf.Work(work)
		if alloc > 0 {
			leaf.Free(alloc)
		}
		p := leaf.Spec()
		for d := 0; d < depth; d++ {
			p = dfdeques.Par2("node", p, p)
		}
		q := serveReq{class: class, s1: dfdeques.MeasureProgram(p).HeapHW, body: api.JobRequest{
			Tenant: tenant, Tree: &api.TreeSpec{Depth: depth, Alloc: alloc, Work: work}}}
		if class != "whale" {
			// The serial simulation at the server's K gives the exact
			// thread and dummy counts, dummy-tree interiors included.
			ref, err := dfdeques.Simulate(p, dfdeques.SimConfig{Procs: 1, Scheduler: "DFD", K: serveK})
			if err != nil {
				panic(err) // a tree this function built is always valid
			}
			q.threads, q.dummies = ref.TotalThreads, ref.DummyThreads
		}
		return q
	}
	var out []serveReq
	// 78% small trees: depths 3–6 equally, tenants 3:2:1, half of the
	// unbudgeted tenants' trees allocating 256 B per leaf.
	tenants := []string{"gold", "gold", "gold", "silver", "silver", "bronze"}
	for i := 0; i < 200; i++ {
		tenant := tenants[i%len(tenants)]
		var alloc int64
		if tenant != "bronze" && i%2 == 0 {
			alloc = 256
		}
		out = append(out, tree(tenant, 3+i%4, alloc, 10+rng.Int63n(30), "tree"))
	}
	// 14% scenarios, each kind equally.
	for i, sc := 0, workload.Scenarios(); i < 36; i++ {
		k := sc[i%len(sc)]
		cfg := workload.ScenarioConfig{Seed: rng.Int63n(1 << 20), Scale: 1}
		out = append(out, serveReq{class: "scenario", sum: fmt.Sprintf("%#x", k.Expect(cfg)), body: api.JobRequest{
			Tenant: []string{"gold", "silver"}[i%2], Scenario: k.Name, Seed: cfg.Seed, Scale: cfg.Scale}})
	}
	// 5% declared trees priced just inside the tight budget, 3% whales.
	for i := 0; i < 13; i++ {
		out = append(out, tree("tight", tightDepth, tightAlloc, 20, "tight"))
	}
	for i := 0; i < 7; i++ {
		out = append(out, tree("bronze", 4, whaleAlloc, 10, "whale"))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// serveResult accumulates one open-loop phase.
type serveResult struct {
	lat, rtt, server, lag []float64 // ms
	good, ok              int
	goodput               []float64 // per phase: good requests per second
	heap                  []float64 // HeapHW/S1 of allocating tree jobs
	jobs                  []grt.JobStats
}

func (a *serveResult) merge(b *serveResult) {
	a.lat = append(a.lat, b.lat...)
	a.rtt = append(a.rtt, b.rtt...)
	a.server = append(a.server, b.server...)
	a.lag = append(a.lag, b.lag...)
	a.good += b.good
	a.ok += b.ok
	a.goodput = append(a.goodput, b.goodput...)
	a.heap = append(a.heap, b.heap...)
	a.jobs = append(a.jobs, b.jobs...)
}

// check classifies one response against its template: nil when the
// outcome is the expected one; a counted failure otherwise, or a
// correctness failure when a completed job returned a wrong result.
func (q *serveReq) check(st api.JobStatus, err error) (failure, wrong error) {
	var ae *api.Error
	if q.class == "whale" {
		if errors.As(err, &ae) && ae.Code == api.CodeCostShed {
			return nil, nil
		}
		return fmt.Errorf("oversized request not cost-shed: status %q err %v", st.Status, err), nil
	}
	switch {
	case errors.As(err, &ae):
		return fmt.Errorf("%s request for %s refused: %d %s", q.class, q.body.Tenant, ae.Status, ae.Code), nil
	case err != nil:
		return fmt.Errorf("%s request: %v", q.class, err), nil
	case st.Status != "done":
		return fmt.Errorf("%s job for %s %s: %s", q.class, q.body.Tenant, st.Status, st.Error), nil
	case q.class == "scenario":
		if st.Checksum != q.sum {
			return nil, fmt.Errorf("scenario %s seed %d checksum %s, want %s", q.body.Scenario, q.body.Seed, st.Checksum, q.sum)
		}
	case st.Stats == nil:
		return nil, fmt.Errorf("tree job returned no stats")
	case st.Stats.TotalThreads != q.threads || st.Stats.DummyThreads != q.dummies || st.Stats.HeapLive != 0:
		return nil, fmt.Errorf("tree depth %d: %d threads (%d dummies), heap live %d; want %d (%d) and 0",
			q.body.Tree.Depth, st.Stats.TotalThreads, st.Stats.DummyThreads, st.Stats.HeapLive, q.threads, q.dummies)
	}
	return nil, nil
}

// openLoop sends Poisson arrivals at serveRate to side for d, drawing
// templates in seeded order, with nproc senders. Each sender takes the
// next due request; a request whose senders are all busy waits, and that
// wait counts in its latency.
func openLoop(side *serveSide, reqs []serveReq, rng *rand.Rand, d time.Duration, sp *spanLog, r *report) *serveResult {
	type arrival struct {
		due time.Duration
		req *serveReq
	}
	var sched []arrival
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		if t >= d {
			break
		}
		sched = append(sched, arrival{t, &reqs[rng.Intn(len(reqs))]})
	}
	type sender struct {
		res           serveResult
		attempted     int64
		fails, wrongs []error
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	senders := make([]sender, runtime.NumCPU())
	start := time.Now()
	for g := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &senders[g].res
			for {
				k := next.Add(1) - 1
				if k >= int64(len(sched)) {
					break
				}
				a := sched[k]
				due := start.Add(a.due)
				// A request due before its sender came free waited on the
				// system: time it from its due time. One whose sender was
				// idle is timed from when it went out, so the sleep's
				// oversleep (about 1 ms on a 2-vCPU VM; reported as generator lag)
				// is not charged to the server.
				queued := !due.After(time.Now())
				if time.Since(due) > serveTimeout {
					// The server stalled long enough that this arrival's
					// whole timeout has passed: count it unsent rather
					// than let a backlog outlive the phase.
					senders[g].attempted++
					senders[g].fails = append(senders[g].fails, fmt.Errorf("%s request not sent: %v late", a.req.class, time.Since(due).Round(time.Millisecond)))
					continue
				}
				time.Sleep(time.Until(due))
				ds := sp.beginAt(spDue, -1, int32(k), due)
				sent := time.Now()
				rs := sp.begin(spRequest, ds, int32(k))
				side.inflight.Add(1)
				ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
				st, err := side.cur.Load().clients[a.req.body.Tenant].SubmitWait(ctx, a.req.body)
				cancel()
				side.inflight.Add(-1)
				got := time.Now()
				var ae *api.Error
				if err == nil || errors.As(err, &ae) {
					side.responded()
				}
				sp.end(rs)
				sp.end(ds)
				senders[g].attempted++
				res.lag = append(res.lag, float64(sent.Sub(due))/1e6)
				failure, wrong := a.req.check(st, err)
				if failure != nil {
					senders[g].fails = append(senders[g].fails, failure)
					continue
				}
				if wrong != nil {
					senders[g].wrongs = append(senders[g].wrongs, wrong)
					continue
				}
				res.ok++
				lat := got.Sub(sent)
				if queued {
					lat = got.Sub(due)
				}
				res.lat = append(res.lat, float64(lat)/1e6)
				if a.req.class == "whale" {
					continue
				}
				if lat <= serveLimit {
					res.good++
				}
				res.rtt = append(res.rtt, float64(got.Sub(sent))/1e6)
				res.server = append(res.server, st.LatencyMs)
				if js := st.Stats; js != nil {
					res.jobs = append(res.jobs, *js)
					if a.req.s1 > 0 {
						res.heap = append(res.heap, float64(js.HeapHW)/float64(a.req.s1))
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := &serveResult{}
	for _, sd := range senders {
		r.attempted += sd.attempted
		for _, e := range sd.fails {
			r.fail("%v", e)
		}
		for _, e := range sd.wrongs {
			r.wrong("%v", e)
		}
		total.merge(&sd.res)
	}
	total.goodput = []float64{float64(total.good) / elapsed.Seconds()}
	return total
}

// scrape reads the /metrics counters the benchmark tracks, summed over
// their labels.
func scrape(side *serveSide, sp *spanLog) (map[string]float64, error) {
	s := sp.begin(spScrape, -1, -1)
	defer sp.end(s)
	text, err := side.cur.Load().clients["gold"].Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		labels := ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		switch name {
		case "dfdserve_jobs_rejected_total":
			out["rejected"] += v
			if strings.Contains(labels, `reason="cost_shed"`) {
				out["cost_shed"] += v
			}
		case "dfdserve_budget_kills_total":
			out["budget_kills"] += v
		case "dfdserve_controller_shrinks_total":
			out["controller_shrinks"] += v
		}
	}
	return out, sc.Err()
}

type serveEnv struct {
	main, one *serveSide
	reqs      []serveReq
}

func (e *serveEnv) close() {
	for _, s := range []*serveSide{e.main, e.one} {
		if s != nil {
			s.close()
		}
	}
}

// setupServe starts the nproc-worker server (and, for the speedup
// ratio, a one-worker twin), draws the request pool, and warms both.
func setupServe(c runConfig, withOne bool) (*serveEnv, error) {
	e := &serveEnv{reqs: serveTemplates(c.seed)}
	var err error
	if e.main, err = startServe(runtime.NumCPU(), c.seed, c.trace, c.dumpDir); err != nil {
		return nil, err
	}
	if withOne {
		if e.one, err = startServe(1, c.seed, false, c.dumpDir); err != nil {
			e.close()
			return nil, err
		}
	}
	warm := 32
	if c.tiny {
		warm = 4
	}
	for _, side := range []*serveSide{e.main, e.one} {
		if side == nil {
			continue
		}
		for i := 0; i < warm; i++ {
			q := &e.reqs[i%len(e.reqs)]
			if q.class != "tree" {
				continue
			}
			st, err := side.cur.Load().clients[q.body.Tenant].SubmitWait(context.Background(), q.body)
			if f, w := q.check(st, err); f != nil || w != nil {
				e.close()
				return nil, fmt.Errorf("warm-up request: %v%v", f, w)
			}
		}
	}
	return e, nil
}

func runServeMix(c runConfig) (*report, error) {
	r := &report{correct: true}
	rng := rand.New(rand.NewSource(c.seed ^ 0x5e7e))
	if c.trace {
		return r, runServeTraced(c, r, rng)
	}
	e, setups, err := measureSetup(setupReps, func() (*serveEnv, error) { return setupServe(c, true) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	ss := summarize(setups)
	r.add("setup_s", ss.Median, ss.N, "median of repeated set-ups")

	// Ten blocks; every third is the one-worker twin (30% of the time).
	const blocks = 10
	blk := c.budget(1.0 / blocks)
	a, b := &serveResult{}, &serveResult{}
	for i := 0; i < blocks; i++ {
		if i%3 == 1 {
			b.merge(openLoop(e.one, e.reqs, rng, blk, nil, r))
			continue
		}
		a.merge(openLoop(e.main, e.reqs, rng, blk, nil, r))
	}
	e.close()
	reportCrashes(r, e.main, e.one)
	if len(a.lat) == 0 || len(b.lat) == 0 {
		return nil, fmt.Errorf("no request completed correctly (%d attempted)", r.attempted)
	}
	sa, sb := summarize(a.lat), summarize(b.lat)
	p := runtime.NumCPU()
	r.add("lat_p50_ms", sa.Median, sa.N, fmt.Sprintf("from due time when queued, else from sending; %d req/s open loop, Workers=%d, quartiles %.4g–%.4g", serveRate, p, sa.Q1, sa.Q3))
	r.add("lat_p99_ms", sa.Tail, sa.N, fmt.Sprintf("p%g", sa.TailPct))
	gp := summarize(a.goodput)
	r.add("jobs_per_s", gp.Median, gp.N, fmt.Sprintf("goodput, completed correctly within %v: median over the Workers=nproc blocks", serveLimit))
	r.add("speedup", sb.Median/sa.Median, min(sa.N, sb.N), fmt.Sprintf("p50 on a Workers=1 twin %.4g ms / Workers=%d %.4g ms, same arrival process", sb.Median, p, sa.Median))
	hs := summarize(a.heap)
	r.add("heap_hw_over_s1", hs.Tail, hs.N, fmt.Sprintf("p%g over allocating tree jobs (largest %.3g)", hs.TailPct, hs.Max))
	r.add("peak_rss_mb", e.main.peakRSS, int(e.main.gen.Load())+1, "the Workers=nproc server process")
	r.add("ok_frac", float64(a.ok+b.ok)/float64(r.attempted), int(r.attempted), "expected outcomes (done and correct, or whale cost-shed) / attempted")
	r.logf("tight tenant: budget %d B, declared trees priced %d B (S1 %d + K*D %d); Thm 4.4 figure at p=%d: %d B",
		tightBudget, tightAlloc+serveK*tightDepth, tightAlloc, serveK*tightDepth, p, tightAlloc+min(serveK, tightAlloc)*int64(p)*tightDepth)
	return r, nil
}

// runServeTraced: an untraced phase for the serve, core and policy
// counters and the reference p50, a phase with spans around each request
// and /metrics scrape, then the calibrations.
func runServeTraced(c runConfig, r *report, rng *rand.Rand) error {
	e, err := setupServe(c, false)
	if err != nil {
		return err
	}
	defer e.close()
	ctx := context.Background()
	m0, err := scrape(e.main, nil)
	if err != nil {
		return err
	}
	before, err := e.main.cur.Load().stats(ctx)
	if err != nil {
		return err
	}
	gen := e.main.gen.Load()
	u := openLoop(e.main, e.reqs, rng, c.budget(0.35), nil, r)
	after, err := e.main.cur.Load().stats(ctx)
	if err != nil {
		return err
	}
	m1, err := scrape(e.main, nil)
	if err != nil {
		return err
	}
	if len(u.lat) == 0 || len(u.jobs) == 0 {
		return fmt.Errorf("no request completed correctly (%d attempted)", r.attempted)
	}
	if restarts := e.main.gen.Load() - gen; restarts > 0 {
		// The counters restarted with the server: count from zero.
		before, m0 = dfdeques.RunStats{}, map[string]float64{}
		r.logf("the server restarted %d times in the untraced phase; its counters cover the last process only", restarts)
	}
	reportCounters(r, before, after, u.jobs)
	rtt, srv := summarize(u.rtt), summarize(u.server)
	r.add("serve.rtt_p50_ms", rtt.Median, rtt.N, "send to response")
	r.add("serve.server_lat_p50_ms", srv.Median, srv.N, "JobStatus.latency_ms")
	r.add("serve.http_overhead_p50_ms", rtt.Median-srv.Median, rtt.N, "rtt p50 minus server p50")
	for _, k := range []string{"rejected", "cost_shed", "budget_kills", "controller_shrinks"} {
		r.add("serve."+k, m1[k]-m0[k], 1, "/metrics delta over the untraced phase")
	}
	su := summarize(u.lat)
	r.add("e2e.lat_p99_ms", su.Tail, su.N, fmt.Sprintf("p%g of the untraced phase", su.TailPct))
	lag := summarize(u.lag)
	r.add("bench.gen_lag_p99_ms", lag.Tail, lag.N, fmt.Sprintf("p%g of send time minus due time", lag.TailPct))

	sp := newSpanLog(1 << 18)
	t := openLoop(e.main, e.reqs, rng, c.budget(0.35), sp, r)
	if _, err := scrape(e.main, sp); err != nil {
		return err
	}
	st := summarize(t.lat)
	r.add("bench.trace_overhead_pct", 100*(st.Median/su.Median-1), st.N, fmt.Sprintf("p50 %.4g ms traced vs %.4g ms untraced", st.Median, su.Median))
	if err := finishSpans(c, r, sp); err != nil {
		return err
	}
	calibrate(c, r)
	e.close()
	r.add("serve.crashes", float64(reportCrashes(r, e.main)), 1, "server process crashes during the run")
	return nil
}

// reportCrashes logs every server crash and returns their number. The
// requests a crash cut off are already counted failures.
func reportCrashes(r *report, sides ...*serveSide) int {
	n := 0
	for _, s := range sides {
		for _, c := range s.crashReport() {
			r.logf("SERVER CRASH: the Workers=%d server crashed and was restarted: %s", s.workers, c)
			n++
		}
	}
	return n
}
