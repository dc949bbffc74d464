#!/bin/sh
# Tier-1 verification (see ROADMAP.md): build, vet, full test suite, and
# a race-detector pass over the concurrency-bearing packages. The -race
# pass is not optional — the runtime's fine-grained engine is exactly the
# kind of code whose bugs only the race detector and the stress tests in
# internal/grt/race_test.go surface.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# perfbench is its own module (BENCHMARK.json builds it from its own
# go.mod), so the root ./... never compiles it; vet and test it here so
# an internal API change cannot break the benchmark unnoticed.
(cd perfbench && go vet ./... && go test ./...)
# staticcheck when available (CI installs it; local runs skip silently so
# the script stays dependency-free).
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
fi
# The suite at several core counts: it must pass whether one CPU
# time-slices the workers or they truly run in parallel (-count=1: the
# test cache does not key on GOMAXPROCS).
for procs in 1 2 4; do
    GOMAXPROCS=$procs go test -count=1 ./...
done
# The replay-verifier-backed tests and the cost gate, repeated at each
# core count: schedule-dependent failures show up only across many runs.
for procs in 1 2 4; do
    GOMAXPROCS=$procs go test -count=20 \
        -run 'TestVerify|TestExportRealRunLoadsBack|TestScenarioCrossEngine|TestCrossEngineInvariants|TestCostShedAndBudgetKill' \
        ./internal/rtrace/ ./internal/grt/ ./internal/serve/
done
go test -race ./internal/grt/... ./internal/deque/... ./internal/core/... ./internal/policy/... ./internal/rtrace/... ./internal/serve/...
# Serving-layer soak (short mode): 8 tenants over HTTP with one
# over-budget hog, asserting isolation (429s + budget kills for the hog
# only) and a leak-free drain. DFDSERVE_SOAK_SECS=120 runs the long one.
go test -race -short -run TestServeSoak -count=1 ./internal/serve/
# Lifecycle stress: cancellation, shutdown and drain paths repeated under
# the race detector — the park/wake, poison-sweep and job-retirement
# races only show up across many runs.
go test -race -run 'Cancel|Shutdown|Drain' -count=5 ./internal/grt/...
# The tracing hooks must also compile out cleanly (-tags grtnotrace folds
# every hook site away behind the rtrace.Enabled constant).
go build -tags grtnotrace ./...
