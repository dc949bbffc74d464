#!/bin/sh
# Benchmark snapshot: runs the contention, speedup, runtime, simulator,
# steal-hot-path and serving-layer benchmarks and writes a
# machine-readable BENCH_<label>.json (one object per benchmark: op,
# ns_per_op, allocs_per_op, workers, engine, and jobs_per_sec where the
# benchmark reports it) for cross-commit comparison.
#
# usage: scripts/bench.sh [label]     (default label: short git commit)
#        BENCHTIME=1s scripts/bench.sh soak
#        scripts/bench.sh --compare OLD.json NEW.json
#                                    (print per-benchmark deltas)
set -eu

cd "$(dirname "$0")/.."

# --compare OLD.json NEW.json: join the two snapshots on the benchmark
# name and print the time and allocation deltas, flagging regressions.
if [ "${1:-}" = "--compare" ]; then
	[ $# -eq 3 ] || { echo "usage: scripts/bench.sh --compare OLD.json NEW.json" >&2; exit 2; }
	old="$2"; new="$3"
	awk -v oldfile="$old" -v newfile="$new" '
	function parse(file, ns, al,   line, op) {
		while ((getline line < file) > 0) {
			if (line !~ /"op":/) continue
			op = line; sub(/.*"op": "/, "", op); sub(/".*/, "", op)
			if (match(line, /"ns_per_op": [0-9.]+/))
				ns[op] = substr(line, RSTART + 13, RLENGTH - 13)
			if (match(line, /"allocs_per_op": [0-9.]+/))
				al[op] = substr(line, RSTART + 17, RLENGTH - 17)
			order[++n] = op
		}
		close(file)
	}
	BEGIN {
		parse(oldfile, ons, oal)
		n0 = n
		parse(newfile, nns, nal)
		printf "%-55s %12s %12s %8s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs"
		for (i = n0 + 1; i <= n; i++) {
			op = order[i]
			if (!(op in nns) || seen[op]++) continue
			if (op in ons) {
				d = (nns[op] - ons[op]) / ons[op] * 100
				flag = (d > 5 ? "  <-- slower" : "")
				da = ""
				if (op in oal && op in nal && oal[op] != "")
					da = sprintf("%+.0f", nal[op] - oal[op])
				printf "%-55s %12.0f %12.0f %+7.1f%% %9s%s\n", op, ons[op], nns[op], d, da, flag
			} else {
				printf "%-55s %12s %12.0f %8s %9s\n", op, "-", nns[op], "new", ""
			}
		}
	}' /dev/null
	exit 0
fi

label="${1:-$(git rev-parse --short HEAD)}"
benchtime="${BENCHTIME:-0.3s}"
out="BENCH_${label}.json"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run='^$' -benchtime="$benchtime" -benchmem \
	-bench='^(BenchmarkGrtContention|BenchmarkGrtSpeedup|BenchmarkGrtForkJoinCost|BenchmarkGrtTrace|BenchmarkRuntimeForkJoin|BenchmarkSimulatorPerScheduler)$' \
	. | tee "$tmp"
# Second pass with the rtrace hook sites compiled out entirely: the
# BenchmarkGrtTrace/pN/compiledout row is the true zero-instrumentation
# baseline for the tracing-overhead comparison.
go test -tags grtnotrace -run='^$' -benchtime="$benchtime" -benchmem \
	-bench='^BenchmarkGrtTrace$' \
	. | tee -a "$tmp"
go test -run='^$' -benchtime="$benchtime" -benchmem \
	-bench='^(BenchmarkListKth|BenchmarkListInsertDelete|BenchmarkStealPattern|BenchmarkOwnerUnderStealStorm)$' \
	./internal/deque/ | tee -a "$tmp"
go test -run='^$' -benchtime="$benchtime" -benchmem \
	-bench='^BenchmarkStealCycle$' \
	./internal/core/ | tee -a "$tmp"
# End-to-end serving throughput: HTTP submit -> admission -> runtime ->
# response, reported as jobs/s alongside ns/op.
go test -run='^$' -benchtime="$benchtime" -benchmem \
	-bench='^BenchmarkServeThroughput$' \
	./internal/serve/ | tee -a "$tmp"

# Fold "Benchmark<Name>/<sub>-<gomaxprocs> N v1 unit1 v2 unit2 ..." lines
# into JSON. workers comes from a pN path element (0 = not applicable);
# engine is fine for the runtime benchmarks, sim for the simulator,
# serve for the serving layer, struct for the bare data-structure
# benchmarks. (Older BENCH_*.json snapshots also carry coarse rows, from
# the deleted global-lock engine.)
awk -v label="$label" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; allocs = ""; jps = ""
	for (i = 3; i < NF; i += 2) {
		if ($(i + 1) == "ns/op") ns = $i
		if ($(i + 1) == "allocs/op") allocs = $i
		if ($(i + 1) == "jobs/s") jps = $i
	}
	workers = 0
	if (match(name, /\/p[0-9]+/)) workers = substr(name, RSTART + 2, RLENGTH - 2)
	engine = "struct"
	if (name ~ /\/fine/) engine = "fine"
	else if (name ~ /^BenchmarkGrtSpeedup/) engine = "fine"
	else if (name ~ /^BenchmarkGrtForkJoinCost/) engine = "fine"
	else if (name ~ /^BenchmarkGrtTrace/) engine = "fine"
	else if (name ~ /^BenchmarkRuntimeForkJoin/) { engine = "fine"; workers = 4 }
	else if (name ~ /^BenchmarkSimulator/) { engine = "sim"; workers = 8 }
	else if (name ~ /^BenchmarkServeThroughput/) engine = "serve"
	extra = (jps == "" ? "" : sprintf(", \"jobs_per_sec\": %s", jps))
	printf "%s{\"op\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"workers\": %s, \"engine\": \"%s\"%s}",
		(n++ ? ",\n  " : ""), name, ns, (allocs == "" ? "null" : allocs), workers, engine, extra
}
BEGIN { printf "{\n \"label\": \"" label "\",\n \"benchmarks\": [\n  " }
END { printf "\n ]\n}\n" }
' "$tmp" > "$out"

echo "wrote $out"
