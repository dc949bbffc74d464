// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks every output against a reference,
// and prints each metric by name with its unit and sample count; the
// last line of standard output is the machine-readable result:
//
//	perfbench --workload fj-fine --seed 1 --seconds 10 --trace 0
//	perfbench compare OLD.json NEW.json
//
// --trace 0 reports the end-to-end metrics; --trace 1 reruns the
// workload with the benchmark's own spans around its calls into each
// layer and reports the per-layer metrics. Every run also writes a
// record (metrics, sample counts and a host fingerprint) under
// -records; compare refuses records from different hosts. README.md has
// the glossary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// endToEnd and perLayer are the metric names, units and directions the
// benchmark reports; BENCHMARK.json lists the same (checked by a test).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"lat_p50_ms", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"speedup", "x", "higher"},
	{"heap_hw_over_s1", "ratio", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "ratio", "higher"},
}

// ungated are printed and recorded by the untraced run but left out of
// its result line. The latency tail is here: on a small shared VM it
// swings 2–4× between runs with host noise, so no bound could hold it;
// traced runs report it as e2e.lat_p99_ms.
var ungated = []metricDef{
	{"lat_p99_ms", "ms", "lower"},
}

var perLayer = []metricDef{
	{"deque.owner_pushpop_ns", "ns", "lower"},
	{"deque.owner_pushpop_storm_ns", "ns", "lower"},
	{"deque.steal_ns", "ns", "lower"},
	{"deque.steal_fail_ratio", "ratio", "lower"},
	{"deque.allocs_per_op", "count", "lower"},
	{"core.steal_insert_ns", "ns", "lower"},
	{"core.steals_per_job", "count", "lower"},
	{"core.failed_steal_ratio", "ratio", "lower"},
	{"core.spine_lock_ops_per_job", "count", "lower"},
	{"core.spine_lock_ns_per_job", "ns", "lower"},
	{"core.steal_wait_ns_per_job", "ns", "lower"},
	{"core.max_deques", "count", "lower"},
	{"policy.dummy_threads_per_job", "count", "lower"},
	{"policy.preemptions_per_job", "count", "lower"},
	{"policy.local_dispatch_share", "ratio", "higher"},
	{"grt.fork_ns", "ns", "lower"},
	{"grt.join_ns", "ns", "lower"},
	{"grt.submit_us", "us", "lower"},
	{"grt.wait_us", "us", "lower"},
	{"grt.threads_per_job", "count", "lower"},
	{"grt.max_live_threads", "count", "lower"},
	{"rtrace.events_per_job", "count", "lower"},
	{"rtrace.record_overhead_pct", "%", "lower"},
	{"rtrace.verify_ms_per_job", "ms", "lower"},
	{"rtrace.verify_reject_jobs", "count", "lower"},
	{"sim.simulate_ms_dfd", "ms", "lower"},
	{"sim.simulate_ms_adf", "ms", "lower"},
	{"sim.simulate_ms_ws", "ms", "lower"},
	{"sim.actions_per_s", "1/s", "higher"},
	{"e2e.lat_p99_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// serveLayer are the per-layer metrics only the serve-mix probe
// measures. They are printed and recorded with its traced run, outside
// the result line, as the probe is not one of BENCHMARK.json's workloads.
var serveLayer = []metricDef{
	{"serve.rtt_p50_ms", "ms", "lower"},
	{"serve.server_lat_p50_ms", "ms", "lower"},
	{"serve.http_overhead_p50_ms", "ms", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.cost_shed", "count", "lower"},
	{"serve.budget_kills", "count", "lower"},
	{"serve.controller_shrinks", "count", "lower"},
	{"serve.crashes", "count", "lower"},
	{"bench.gen_lag_p99_ms", "ms", "lower"},
}

type metricDef struct{ Name, Unit, Better string }

// metric is one reported figure. N is its sample count: the number of
// measurements the value summarizes (jobs, batches, steals ...); 0 marks
// a metric that does not apply to the workload.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

// report is what a workload run returns.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
	lines     []string // detail printed before the metrics
	problems  []string // each correctness or counted failure, deduplicated
}

func (r *report) add(name string, v float64, n int, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, N: n, Note: note})
}

func (r *report) has(name string) bool {
	for _, m := range r.metrics {
		if m.Name == name {
			return true
		}
	}
	return false
}

func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// wrong records an output-correctness failure: the run exits nonzero.
func (r *report) wrong(format string, args ...any) {
	r.correct = false
	r.problem("WRONG: " + fmt.Sprintf(format, args...))
}

// fail records a failed operation (counted, not fatal).
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problem("FAILED: " + fmt.Sprintf(format, args...))
}

func (r *report) problem(s string) {
	if len(r.problems) < 20 {
		for _, p := range r.problems {
			if p == s {
				return
			}
		}
		r.problems = append(r.problems, s)
	}
}

// runConfig is what a workload run is given.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	tiny    bool   // smoke-test scale: small jobs, few samples
	spanDir string // where a traced run writes its spans ("" = nowhere)
	dumpDir string // where a crashed or hung server's stderr goes ("" = nowhere)
}

func (c runConfig) budget(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

type benchWorkload struct {
	name string
	run  func(c runConfig) (*report, error)
}

// workloads are the benchmark's workloads, the ones BENCHMARK.json lists
// and says why each was chosen.
var workloads = []benchWorkload{
	{"fj-fine", runFJFine},
	{"mm-quota", runMMQuota},
	{"sim-paper", runSimPaper},
}

// probes run like workloads but are not in BENCHMARK.json. serve-mix is
// one because the server under test crashes and hangs at random (see
// README.md): its failed count differs between runs of the same seed, so
// no two sets of runs can agree on it. It still counts every failure.
var probes = []benchWorkload{
	{"serve-mix", runServeMix},
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "serve-child":
			os.Exit(serveChildMain(os.Args[2:]))
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: fj-fine, mm-quota or sim-paper, or the serve-mix probe")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time of the run")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	records := fs.String("records", "", "directory for the run record (empty = none)")
	_ = fs.Parse(os.Args[1:])
	os.Exit(benchMain(*name, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}, *records, os.Stdout))
}

func benchMain(name string, c runConfig, records string, out io.Writer) int {
	var run func(runConfig) (*report, error)
	for _, w := range append(workloads, probes...) {
		if w.name == name {
			run = w.run
		}
	}
	if run == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	if c.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if records != "" {
		c.spanDir = filepath.Join(records, "spans", name)
		c.dumpDir = filepath.Join(records, "server-dumps", fmt.Sprintf("seed%d", c.seed))
	}
	host := hostFingerprint()
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%v\n", name, c.seed, c.seconds, c.trace)
	fmt.Fprintf(out, "host: %s\n", host)
	r, err := run(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if !c.trace && !r.has("peak_rss_mb") {
		r.add("peak_rss_mb", peakRSSMB(), 1, "this process")
	}
	final, extra, err := finish(r, c.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	for _, l := range r.lines {
		fmt.Fprintln(out, l)
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, p)
	}
	for _, m := range append(final, extra...) {
		note := ""
		if m.Note != "" {
			note = "  [" + m.Note + "]"
		}
		fmt.Fprintf(out, "metric %-30s %14.6g %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, note)
	}
	fmt.Fprintf(out, "attempted=%d failed=%d correct=%v\n", r.attempted, r.failed, r.correct)
	if records != "" {
		if err := writeRecord(records, name, c, host, r, append(final, extra...)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: record: %v\n", err)
			return 1
		}
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]val{}}
	for _, m := range final {
		res.Metrics[m.Name] = val{m.Value, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !r.correct {
		return 1
	}
	return 0
}

// finish selects the metrics of the run's mode (per-layer when traced,
// else end-to-end), in their listed order, with their units. A per-layer
// metric the workload did not measure is reported as 0 with N = 0; a
// missing end-to-end metric is a bug. The run's other metrics come back
// as extra: printed and recorded, but not in the result line.
func finish(r *report, traced bool) (final, extra []metric, err error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	got := map[string]metric{}
	for _, m := range r.metrics {
		got[m.Name] = m
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			if !traced {
				return nil, nil, fmt.Errorf("end-to-end metric %s not measured", d.Name)
			}
			m = metric{Name: d.Name, Note: "not measured on this workload"}
		}
		m.Unit = d.Unit
		final = append(final, m)
		delete(got, d.Name)
	}
	for _, m := range r.metrics {
		if _, ok := got[m.Name]; !ok {
			continue
		}
		others := slices.Concat(ungated, serveLayer)
		i := slices.IndexFunc(others, func(d metricDef) bool { return d.Name == m.Name })
		if i < 0 {
			return nil, nil, fmt.Errorf("metric %s is in no list", m.Name)
		}
		m.Unit = others[i].Unit
		m.Note = strings.TrimPrefix(m.Note+"; not gated", "; ")
		extra = append(extra, m)
	}
	return final, extra, nil
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ---- host fingerprint, records and compare ------------------------------

// fingerprint identifies the host and build a result came from. Results
// are comparable only when the host part (everything but the commit)
// matches.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s dirty=%v", f.NProc, f.GOMAXPROCS, f.CPU, f.GoVersion, f.Commit, f.Dirty)
}

func (f fingerprint) sameHost(g fingerprint) bool {
	return f.NProc == g.NProc && f.GOMAXPROCS == g.GOMAXPROCS && f.CPU == g.CPU && f.GoVersion == g.GoVersion
}

func hostFingerprint() fingerprint {
	f := fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				f.Commit = s.Value
			case "vcs.modified":
				f.Dirty = s.Value == "true"
			}
		}
	}
	return f
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

type record struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Trace     bool        `json:"trace"`
	Host      fingerprint `json:"host"`
	Correct   bool        `json:"correct"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	Metrics   []metric    `json:"metrics"`
	Problems  []string    `json:"problems,omitempty"`
}

func writeRecord(dir, name string, c runConfig, host fingerprint, r *report, ms []metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := record{name, c.seed, c.seconds, c.trace, host, r.correct, r.attempted, r.failed, ms, r.problems}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if c.trace {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, c.seed, t)), append(raw, '\n'), 0o644)
}

func readRecord(path string) (record, error) {
	var r record
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

var errHostMismatch = errors.New("records come from different hosts")

// compareMain prints NEW against OLD metric by metric. It refuses (exit
// 2) when the two records' host fingerprints differ or their workloads
// or modes do not match.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	d, err := compareRecords(args[0], args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	for _, l := range d {
		fmt.Fprintln(out, l)
	}
	return 0
}

func compareRecords(oldPath, newPath string) ([]string, error) {
	a, err := readRecord(oldPath)
	if err != nil {
		return nil, err
	}
	b, err := readRecord(newPath)
	if err != nil {
		return nil, err
	}
	if !a.Host.sameHost(b.Host) {
		return nil, fmt.Errorf("%w:\n  old %s\n  new %s", errHostMismatch, a.Host, b.Host)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		return nil, fmt.Errorf("records measure different things: %s trace=%v %gs vs %s trace=%v %gs", a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds)
	}
	old := map[string]metric{}
	for _, m := range a.Metrics {
		old[m.Name] = m
	}
	lines := []string{fmt.Sprintf("%s (old commit %s, new commit %s)", a.Workload, a.Host.Commit, b.Host.Commit)}
	for _, m := range b.Metrics {
		o, ok := old[m.Name]
		if !ok {
			continue
		}
		ratio := "    -"
		if o.Value != 0 {
			ratio = fmt.Sprintf("%+.1f%%", 100*(m.Value/o.Value-1))
		}
		lines = append(lines, fmt.Sprintf("  %-30s %14.6g -> %-14.6g %s %s", m.Name, o.Value, m.Value, m.Unit, ratio))
	}
	return lines, nil
}
