#!/usr/bin/env sh
# Full CI gate: build, vet, simulation-aware lint, tests (the per-package
# AllocsPerRun guards among them pin every sim-tick kernel at 0
# allocs/op; internal/paperdata flies the 850-case paper campaign and
# byte-compares its report with the committed RESULTS.md, and
# cmd/figures compares the figure outcomes with
# cmd/figures/testdata/figures.txt), the race detector over the
# concurrent packages (broker, tracker, campaign runner, metrics
# registry), a one-iteration smoke of the root micro-benchmarks, the
# campaign benchmark's own vet and tests (it compiles against this tree
# and its traced mini-grid test runs every benchsuite/micro body), spec
# validation for the shipped example campaign specs, and three
# end-to-end smokes: a mini spec-driven campaign must emit a metrics
# snapshot that passes the schema validator, re-running it with -resume
# over the completed results file must simulate zero cases (its cache
# reports 0 misses), cmd/report over it must render verdicts without the
# paper-grid shape checks, and the observability surface (trace-event
# export, live status endpoint, black-box dumps) must produce valid,
# loadable artifacts, and a multi-start campaign whose forks come off
# prefix chains must match its straight-through run bit for bit. Short
# fuzz passes cover the resume decoder and fork-versus-straight
# equivalence. Any failure fails the gate. Timing is gated by the campaign benchmark
# (BENCHMARK.json, benchsuite/run.sh), which compares interleaved runs on
# one host; this script gates none.
set -eux

tmpdir=$(mktemp -d)
trap 'kill "${CAMPAIGND_PID:-}" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT

go build ./...
go vet ./...
# Simulation-aware lint over the whole module, stale suppressions
# included; the machine-readable report lands next to the other CI
# artifacts. goroutinespawn inside the suite enforces that sim-critical
# packages (sweep among them) spawn no goroutines, so no grep gate is
# needed. On findings, replay the report for humans and fail.
go run ./cmd/uavlint -unused-suppressions -json ./... >"$tmpdir/lint.json" || {
	cat "$tmpdir/lint.json" >&2
	exit 1
}
go test ./...
go test -race ./internal/telemetry/ ./internal/sweep/ ./internal/uspace/ ./internal/core/ ./internal/sim/ ./internal/obs/
go test -run XXX -bench Micro -benchtime=1x -benchmem .
# The campaign benchmark is its own module over this tree: vet and test it
# here so a change that breaks its build fails CI, not the benchmark run.
(cd benchsuite && go vet ./... && go test ./...)
# Short fuzz pass over the resume decoder (seed corpus under
# internal/core/testdata/fuzz): no panic, and a writer round trip.
go test -run XXX -fuzz FuzzLoadPartialResults -fuzztime 10s ./internal/core/
# Short fuzz pass over fault parameters (primitive, target or rotor,
# scope, start, duration): chained forks equal straight runs, and every
# outcome is enumerated with finite numbers.
go test -run XXX -fuzz FuzzForkMatchesStraight -fuzztime 10s ./internal/core/

# Example campaign specs stay loadable and compilable.
go run ./cmd/campaign -validate-spec examples/specs/paper-850.json
go run ./cmd/campaign -validate-spec examples/specs/redundancy-ablation.json
go run ./cmd/campaign -validate-spec examples/specs/mini-grid.json
go run ./cmd/campaign -validate-spec examples/specs/mini-grid-wide.json
go run ./cmd/campaign -validate-spec examples/specs/redundancy-matrix.json
go run ./cmd/campaign -validate-spec examples/specs/mini-hexa-actuator.json
go run ./cmd/campaign -validate-spec examples/specs/mini-starts.json

# Multi-start equivalence smoke: mission 1's sensor and rotor faults at
# four injection starts form two prefix chains, each flown once under its
# latest-starting case and snapshotted at every start. Every fork must
# match the straight-through run bit for bit.
go run ./cmd/campaign -spec examples/specs/mini-starts.json -q -out "$tmpdir/starts.json"
go run ./cmd/campaign -spec examples/specs/mini-starts.json -q -out "$tmpdir/starts_straight.json" -checkpoint=false
go run ./cmd/campaign -compare-results "$tmpdir/starts.json,$tmpdir/starts_straight.json"

# Airframe + actuator smoke: the hexa actuator mini-spec (rotor FDI and
# allocation reconfig enabled) must run through both the lockstep batch
# path and scalar forks with bit-identical results.
go run ./cmd/campaign -spec examples/specs/mini-hexa-actuator.json -q -out "$tmpdir/hexa.json"
go run ./cmd/campaign -spec examples/specs/mini-hexa-actuator.json -q -out "$tmpdir/hexa_scalar.json" -batch=false
go run ./cmd/campaign -compare-results "$tmpdir/hexa.json,$tmpdir/hexa_scalar.json"

# Observability + resume smoke: run one mission's gyro cases with
# metrics capture, validate the snapshot schema, then resume over the
# completed results file — every case is a cache hit, zero simulate.
go run ./cmd/campaign -select mission=1,target=gyro -q -out "$tmpdir/results.json" -metrics-out "$tmpdir/metrics.json"
go run ./cmd/campaign -validate-metrics "$tmpdir/metrics.json"
go run ./cmd/campaign -select mission=1,target=gyro -q -out "$tmpdir/results.json" -resume | tee "$tmpdir/resume.log"
grep -q 'resume from .*: [1-9][0-9]* hits, 0 misses' "$tmpdir/resume.log"

# The one report renderer over that slice: tables and per-case verdicts,
# but no paper shape checks, which apply only to the paper grid.
go run ./cmd/report -in "$tmpdir/results.json" -out "$tmpdir/report.md"
grep -q '^## Per-case verdicts' "$tmpdir/report.md"
if grep -q 'shape checks' "$tmpdir/report.md"; then
	echo "ci: report over a slice has a shape-check section" >&2
	exit 1
fi

# Batch-vs-scalar equivalence smoke: the slice above ran through the
# default lockstep batch path; re-run it with scalar forks and require
# bit-identical results case-for-case.
go run ./cmd/campaign -select mission=1,target=gyro -q -out "$tmpdir/results_scalar.json" -batch=false
go run ./cmd/campaign -compare-results "$tmpdir/results.json,$tmpdir/results_scalar.json"

# Primary-switch smoke: under primary scope, redundancy voting switches
# mission 5's primary IMU mid-flight. Those forks stay in the lockstep
# batch and read the shared IMU draws by count; they must still match
# scalar forks bit for bit.
go run ./cmd/campaign -scope primary -select mission=5,target=gyro -q -out "$tmpdir/primary.json"
go run ./cmd/campaign -scope primary -select mission=5,target=gyro -q -out "$tmpdir/primary_scalar.json" -batch=false
go run ./cmd/campaign -compare-results "$tmpdir/primary.json,$tmpdir/primary_scalar.json"

# Tracing + black-box smoke: mission 1's accelerometer cases include
# crash and containment-violation outcomes, so this run must emit a
# valid trace-event JSON (one case span per case), black-box dumps, and
# exercise the fail-fast parent-directory creation ($tmpdir/obs does not
# exist yet).
go run ./cmd/campaign -select mission=1,target=accel,duration=5s -q \
	-out "$tmpdir/obs/results.json" -trace-out "$tmpdir/obs/trace.json" \
	-blackbox-dir "$tmpdir/obs/blackbox"
go run ./cmd/campaign -validate-trace "$tmpdir/obs/trace.json"
# Every crash/violation case yielded a black box, and replay loads one.
ls "$tmpdir/obs/blackbox"/*.blackbox.json
go run ./cmd/replay -blackbox "$(ls "$tmpdir/obs/blackbox"/*.blackbox.json | head -n 1)" >/dev/null
# Live status endpoint: mid-run 200 with well-formed JSON plus the SSE
# stream, driven by the package test against the real handler stack.
go test -run 'TestStatusEndpointMidRun' ./cmd/campaign/

# campaignd + content-addressed store smoke: start the daemon on a free
# port, submit the mini grid twice — the second run must be >=95% cache
# hits (here: 100%, zero misses) and its merged results file must
# bit-compare equal to a direct cmd/campaign run of the same spec — then
# submit the overlapping wider grid, which may simulate only the two new
# duration cells.
go build -o "$tmpdir/campaignd" ./cmd/campaignd
"$tmpdir/campaignd" -addr 127.0.0.1:0 -addr-file "$tmpdir/campaignd.addr" \
	-store "$tmpdir/store" -out-dir "$tmpdir/campaignd-out" -q &
CAMPAIGND_PID=$!
for _ in $(seq 1 100); do
	[ -s "$tmpdir/campaignd.addr" ] && break
	sleep 0.1
done
CAMPAIGND_ADDR=$(cat "$tmpdir/campaignd.addr")
"$tmpdir/campaignd" -submit examples/specs/mini-grid.json -addr "$CAMPAIGND_ADDR" | tee "$tmpdir/run1.json"
"$tmpdir/campaignd" -submit examples/specs/mini-grid.json -addr "$CAMPAIGND_ADDR" | tee "$tmpdir/run2.json"
grep -q '"cache_misses": 0' "$tmpdir/run2.json"
grep -q '"cache_hit_ratio": 1' "$tmpdir/run2.json"
warm_results=$(grep -o '"results_path": *"[^"]*"' "$tmpdir/run2.json" | cut -d'"' -f4)
go run ./cmd/campaign -spec examples/specs/mini-grid.json -q -out "$tmpdir/direct.json"
go run ./cmd/campaign -compare-results "$warm_results,$tmpdir/direct.json"
"$tmpdir/campaignd" -submit examples/specs/mini-grid-wide.json -addr "$CAMPAIGND_ADDR" | tee "$tmpdir/run3.json"
grep -q '"cache_hits": 5' "$tmpdir/run3.json"
grep -q '"cache_misses": 2' "$tmpdir/run3.json"
kill "$CAMPAIGND_PID"
CAMPAIGND_PID=

# The same store serves cmd/campaign directly: a -store run over the
# warmed cache must simulate nothing new for the overlapping cells.
go run ./cmd/campaign -spec examples/specs/mini-grid.json -q \
	-out "$tmpdir/store_direct.json" -store "$tmpdir/store" \
	-metrics-out "$tmpdir/store_metrics.json" | tee "$tmpdir/store_run.log"
grep -q 'store .*: 5 hits, 0 misses' "$tmpdir/store_run.log"
grep -q 'campaign_cache_hits_total' "$tmpdir/store_metrics.json"
grep -q 'store_objects' "$tmpdir/store_metrics.json"
go run ./cmd/campaign -compare-results "$tmpdir/store_direct.json,$tmpdir/direct.json"
