package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for perfbench as serve-mix's
// server child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve-child" {
		os.Exit(serveChildMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// TestSmokeAllWorkloads runs every workload and probe at tiny size,
// untraced and traced, and checks the result line: correct, every metric
// of the mode present with its unit, and every end-to-end metric nonzero.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, wl := range append(workloads, probes...) {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			c := runConfig{seed: 7, seconds: 0.4, trace: trace, tiny: true}
			if code := benchMain(wl.name, c, t.TempDir(), &out); code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s", wl.name, trace, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", wl.name, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: correct=%v attempted=%d metrics=%d, want true, >=1, %d",
					wl.name, trace, res.Correct, res.Attempted, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or unit %q, want %q", wl.name, d.Name, m.Unit, d.Unit)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl.name, d.Name)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// lists identical to the ones the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, w.Name, workloads[i].name)
		}
	}
	for _, pair := range []struct{ json, prog []metricDef }{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(pair.json), len(pair.prog))
		}
		for i := range pair.json {
			if pair.json[i] != pair.prog[i] {
				t.Errorf("metric %d: %+v in BENCHMARK.json, %+v in the program", i, pair.json[i], pair.prog[i])
			}
		}
	}
}

// TestCompareRefusesOtherHost: records from hosts with different
// fingerprints are not compared; the commit alone may differ.
func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f fingerprint) string {
		rec := record{Workload: "fj-fine", Seconds: 10, Host: f, Metrics: []metric{{Name: "lat_p50_ms", Value: 2, Unit: "ms"}}}
		raw, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	host := fingerprint{NProc: 2, GOMAXPROCS: 2, CPU: "cpu A", GoVersion: "go1.24.0", Commit: "aaa"}
	newer := host
	newer.Commit, newer.Dirty = "bbb", true
	other := host
	other.NProc, other.GOMAXPROCS = 8, 8
	a, b, c := write("a.json", host), write("b.json", newer), write("c.json", other)
	if _, err := compareRecords(a, b); err != nil {
		t.Errorf("same host, different commit: %v", err)
	}
	if _, err := compareRecords(a, c); !errors.Is(err, errHostMismatch) {
		t.Errorf("different hosts compared: err = %v", err)
	}
}
