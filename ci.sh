#!/usr/bin/env sh
# Full CI gate: build, vet, a gofmt check over the tracked Go files, a
# check that neither internal/ nor cmd/campaign links net,
# simulation-aware lint,
# tests (the per-package AllocsPerRun guards among them pin every
# sim-tick kernel at 0 allocs/op; internal/paperdata flies the 850-case
# paper campaign and byte-compares its report with the committed
# RESULTS.md, and cmd/figures compares the figure outcomes with
# cmd/figures/testdata/figures.txt), the race detector over the campaign
# runner and the packages its workers share (sim, obs), a
# one-iteration smoke of the root micro-benchmarks, the
# campaign benchmark's own vet and tests (it compiles against this tree
# and its traced mini-grid test runs every benchsuite/micro body), spec
# validation for every shipped example campaign spec, and end-to-end
# smokes: a mini spec-driven campaign must emit a metrics snapshot that
# passes the schema validator, re-running it with -resume over the
# completed results file must simulate zero cases (its cache reports 0
# misses), cmd/report over it must render verdicts without the
# paper-grid shape checks, the observability surface (trace-event
# export, black-box dumps) must produce valid,
# loadable artifacts, a gyro-threshold variants campaign must match its
# straight-through run bit for bit with a distinct fingerprint per case
# and differing outcomes across variants, a multi-start campaign whose forks come off two
# prefix chains and whose cases, gold run included, all batch in one
# flight environment must match its straight-through and scalar-fork
# runs bit for bit, the primary-scope spec's mission-5 gyro slice
# (redundancy voting switches the primary IMU) must match its scalar-fork
# run bit for bit, the hexa actuator mini-spec and the redundancy
# matrix's mission-1 octo-x slice (rotor FDI and reconfigured allocation)
# must match their straight-through runs bit for bit, campaign -store
# must replay a warm grid from the result store and simulate only the
# new cells of a wider one, two runs of one spec with the same flags
# must write byte-identical results files, and a uavsim black-box dump
# must load in replay and export its trajectory.
# Short fuzz passes cover the results-file decoder, the spec decoder and
# compiler, the -select expression parser and the selection it makes
# (against the pre-compilation reference predicate), fork-versus-straight
# equivalence, the result store's index replay and the black-box dump
# decoder.
# Any failure fails the gate. Timing is gated by the campaign benchmark
# (BENCHMARK.json, benchsuite/run.sh), which compares interleaved runs on
# one host; this script gates none.
set -eux

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

go build ./...
go vet ./...
# Formatting: tracked files only, so module caches under .bench_build/
# are never scanned.
test -z "$(gofmt -l $(git ls-files '*.go'))"
# Neither the library nor the campaign command links network code.
test -z "$(go list -deps ./internal/... | grep -E '^net(/|$)')"
test -z "$(go list -deps ./cmd/campaign | grep -E '^net(/|$)')"
# Simulation-aware lint over the whole module, stale suppressions
# included; the machine-readable report lands next to the other CI
# artifacts. goroutinespawn inside the suite enforces that sim-critical
# packages spawn no goroutines, so no grep gate is needed. On findings, replay the report for humans and fail.
go run ./cmd/uavlint -unused-suppressions -json ./... >"$tmpdir/lint.json" || {
	cat "$tmpdir/lint.json" >&2
	exit 1
}
go test ./...
go test -race ./internal/core/ ./internal/sim/ ./internal/obs/
go test -run XXX -bench Micro -benchtime=1x -benchmem .
# The campaign benchmark is its own module over this tree: vet and test it
# here so a change that breaks its build fails CI, not the benchmark run.
(cd benchsuite && go vet ./... && go test ./...)
# Short fuzz pass over the one results-file decoder, which every reader
# of a results file goes through (-resume, cmd/report, -compare-results,
# the campaign benchmark's check); seed corpus under
# internal/core/testdata/fuzz: no panic, and a writer round trip.
go test -run XXX -fuzz FuzzLoadPartialResults -fuzztime 10s ./internal/core/
# Short fuzz pass over the spec decoder and compiler (seed corpus under
# internal/spec/testdata/fuzz): no panic, and every compiled case has a
# unique ID, a positive duration and a non-negative start.
go test -run XXX -fuzz FuzzParseCompile -fuzztime 10s ./internal/spec/
# Short fuzz pass over the -select expression parser (seed corpus under
# internal/spec/testdata/fuzz): no panic, and every accepted selector
# validates, has a non-negative mission and survives a JSON round trip.
# It also selects: over each mini example spec, ApplySelectors and
# Compile with the selector as the select list keep exactly the cases the
# reference predicate keeps.
go test -run XXX -fuzz FuzzParseSelector -fuzztime 10s ./internal/spec/
# Short fuzz pass over fault parameters (primitive, target or rotor,
# scope, start, duration): chained forks equal straight runs, and every
# outcome is enumerated with finite numbers.
go test -run XXX -fuzz FuzzForkMatchesStraight -fuzztime 10s ./internal/core/
# Short fuzz pass over the result store's index replay (seed corpus under
# internal/store/testdata/fuzz): Open never fails, Get never returns a
# result filed under another fingerprint, and a put survives a reopen
# whatever the index held.
go test -run XXX -fuzz FuzzOpenIndex -fuzztime 10s ./internal/store/
# Short fuzz pass over the black-box dump decoder, the one flight-record
# format (seed corpus under internal/blackbox/testdata/fuzz): no panic,
# and every accepted dump survives a write and reload unchanged.
go test -run XXX -fuzz FuzzLoadBlackbox -fuzztime 10s ./internal/blackbox/

# Every example campaign spec stays loadable and compilable.
go build -o "$tmpdir/campaign" ./cmd/campaign
for f in examples/specs/*.json; do
	"$tmpdir/campaign" -validate-spec "$f"
done

# Variants smoke: the gyro-threshold spec flies the same grid (Gyro
# Noise for 10 s and 30 s on every mission, plus gold runs) under four
# failsafe thresholds. Each variant flies its own batches, bit-identical
# to straight runs; every case's fingerprint is distinct (the variant's
# overrides are hashed with the case), and the variants do not all end
# the same way.
go run ./cmd/campaign -spec examples/specs/gyro-threshold-variants.json -q -out "$tmpdir/thr.json"
go run ./cmd/campaign -spec examples/specs/gyro-threshold-variants.json -q -out "$tmpdir/thr_straight.json" -checkpoint=false
go run ./cmd/campaign -compare-results "$tmpdir/thr.json,$tmpdir/thr_straight.json"
hashes=$(sed -n 's/^ *"hash": "\([0-9a-f]*\)".*/\1/p' "$tmpdir/thr.json")
if [ "$(printf '%s\n' "$hashes" | wc -l | tr -d ' ')" != 120 ] || [ -n "$(printf '%s\n' "$hashes" | sort | uniq -d)" ]; then
	echo "ci: the threshold variants do not carry 120 distinct fingerprints" >&2
	exit 1
fi
go run ./cmd/report -in "$tmpdir/thr.json" -out "$tmpdir/thr.md"
grep -q '^## By variant' "$tmpdir/thr.md"
if [ "$(grep -c '^m[0-9]*-gyro-noise-[0-9]*s-thr30 failsafe ' "$tmpdir/thr.md")" = "$(grep -c '^m[0-9]*-gyro-noise-[0-9]*s-thr240 failsafe ' "$tmpdir/thr.md")" ]; then
	echo "ci: the 30 and 240 deg/s threshold variants failsafe equally often" >&2
	exit 1
fi

# Multi-start equivalence smoke: mission 1's sensor and rotor faults at
# four injection starts form two prefix chains, each flown once under its
# latest-starting case and snapshotted at every start. All 21 cases share
# one flight environment, so they step in one lockstep batch: the 20
# forks join from their chains' snapshots across starts, the gold run at
# launch. Every case must match the straight-through run and a scalar
# fork bit for bit, every case must have batched and exactly the 20
# faulty ones forked: the runner falls back to scalar runs silently, so
# only the counters show a dead batch path.
go run ./cmd/campaign -spec examples/specs/mini-starts.json -q -out "$tmpdir/starts.json" -metrics-out "$tmpdir/starts_metrics.json"
go run ./cmd/campaign -spec examples/specs/mini-starts.json -q -out "$tmpdir/starts_straight.json" -checkpoint=false
go run ./cmd/campaign -compare-results "$tmpdir/starts.json,$tmpdir/starts_straight.json"
go run ./cmd/campaign -spec examples/specs/mini-starts.json -q -out "$tmpdir/starts_scalar.json" -batch=false
go run ./cmd/campaign -compare-results "$tmpdir/starts.json,$tmpdir/starts_scalar.json"
counter() { grep -A1 "\"name\": \"$1\"" "$tmpdir/starts_metrics.json" | sed -n 's/.*"value": *\([0-9]*\).*/\1/p'; }
total=$(counter campaign_cases_total)
forked=$(counter campaign_cases_forked_total)
batched=$(counter campaign_cases_batched_total)
if [ "$total" != 21 ] || [ "$batched" != "$total" ] || [ "$forked" != 20 ]; then
	echo "ci: mini-starts batched ${batched:-?} and forked ${forked:-?} of ${total:-?} cases; want 21 batched, 20 forked" >&2
	exit 1
fi

# Airframe + actuator smoke: the hexa actuator mini-spec (rotor FDI and
# allocation reconfig enabled) must run through the lockstep batch path,
# scalar forks and straight runs with bit-identical results.
go run ./cmd/campaign -spec examples/specs/mini-hexa-actuator.json -q -out "$tmpdir/hexa.json"
go run ./cmd/campaign -spec examples/specs/mini-hexa-actuator.json -q -out "$tmpdir/hexa_scalar.json" -batch=false
go run ./cmd/campaign -compare-results "$tmpdir/hexa.json,$tmpdir/hexa_scalar.json"
go run ./cmd/campaign -spec examples/specs/mini-hexa-actuator.json -q -out "$tmpdir/hexa_straight.json" -checkpoint=false
hexa_cmp=$(go run ./cmd/campaign -compare-results "$tmpdir/hexa.json,$tmpdir/hexa_straight.json")
echo "$hexa_cmp"
# The straight run's results header must say so: it forked nothing.
if ! printf '%s\n' "$hexa_cmp" | grep -q "hexa_straight.json (mode=straight width=0 "; then
	echo "ci: the -checkpoint=false results header does not name mode=straight" >&2
	exit 1
fi

# Octo-x equivalence smoke: the redundancy matrix's mission-1 octo-x
# slice (21 sensor forks, 3 actuator forks with rotor FDI and
# reconfigured allocation, and the gold run) in lockstep batches and
# straight through, so the eight-rotor mixer that allocation and
# reconfiguration are built from runs end to end too.
octo="-spec examples/specs/redundancy-matrix.json -select mission=1,airframe=octo-x -q"
go run ./cmd/campaign $octo -out "$tmpdir/octo.json"
go run ./cmd/campaign $octo -out "$tmpdir/octo_straight.json" -checkpoint=false
go run ./cmd/campaign -compare-results "$tmpdir/octo.json,$tmpdir/octo_straight.json" | tee "$tmpdir/octo_cmp.log"
grep -q ': 25 cases bit-identical' "$tmpdir/octo_cmp.log"

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

# Primary-switch smoke: under the primary-scope spec (the paper grid
# with faults on IMU unit 0 only), redundancy voting switches mission 5's
# primary IMU mid-flight. Those forks stay in the lockstep batch and read
# the shared IMU draws by count; they must still match scalar forks bit
# for bit.
primary="-spec examples/specs/primary-scope.json -select mission=5,target=gyro -q"
go run ./cmd/campaign $primary -out "$tmpdir/primary.json"
go run ./cmd/campaign $primary -out "$tmpdir/primary_scalar.json" -batch=false
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
# Single-flight record smoke: uavsim writes its flight as a black-box
# dump with the full trajectory; replay loads it, exports a CSV with one
# row per point and an SVG, and reports the outcome uavsim printed.
go run ./cmd/uavsim -mission 1 -fault acc:zeros -dur 30s \
	-blackbox "$tmpdir/f.blackbox.json" | tee "$tmpdir/uavsim.log"
go run ./cmd/replay -blackbox "$tmpdir/f.blackbox.json" \
	-csv "$tmpdir/f.csv" -svg "$tmpdir/f.svg" | tee "$tmpdir/replay.log"
test "$(wc -l <"$tmpdir/f.csv")" -gt 1
test -s "$tmpdir/f.svg"
outcome() { sed -n 's/^ *outcome: *//p' "$1"; }
if [ -z "$(outcome "$tmpdir/uavsim.log")" ] || [ "$(outcome "$tmpdir/uavsim.log")" != "$(outcome "$tmpdir/replay.log")" ]; then
	echo "ci: replay reports outcome '$(outcome "$tmpdir/replay.log")', uavsim '$(outcome "$tmpdir/uavsim.log")'" >&2
	exit 1
fi
# Content-addressed store smoke, all through campaign -store: the mini
# grid into a fresh store simulates all 5 cases; a rerun replays all 5
# from the store, zero simulate, and its results file bit-compares equal
# to a storeless direct run; the overlapping wider grid simulates only
# its two new duration cells.
go run ./cmd/campaign -spec examples/specs/mini-grid.json -q \
	-out "$tmpdir/store_cold.json" -store "$tmpdir/store" | tee "$tmpdir/store_cold.log"
grep -q 'store .*: 0 hits, 5 misses' "$tmpdir/store_cold.log"
go run ./cmd/campaign -spec examples/specs/mini-grid.json -q \
	-out "$tmpdir/store_warm.json" -store "$tmpdir/store" \
	-metrics-out "$tmpdir/store_metrics.json" | tee "$tmpdir/store_warm.log"
grep -q 'store .*: 5 hits, 0 misses' "$tmpdir/store_warm.log"
grep -q 'campaign_cache_hits_total' "$tmpdir/store_metrics.json"
grep -q 'store_objects' "$tmpdir/store_metrics.json"
go run ./cmd/campaign -spec examples/specs/mini-grid.json -q -out "$tmpdir/direct.json"
# Results stream in case order: the same spec and flags write the same
# file byte for byte.
go run ./cmd/campaign -spec examples/specs/mini-grid.json -q -out "$tmpdir/direct_again.json"
cmp "$tmpdir/direct.json" "$tmpdir/direct_again.json"
go run ./cmd/campaign -compare-results "$tmpdir/store_warm.json,$tmpdir/direct.json"
go run ./cmd/campaign -spec examples/specs/mini-grid-wide.json -q \
	-out "$tmpdir/store_wide.json" -store "$tmpdir/store" | tee "$tmpdir/store_wide.log"
grep -q 'store .*: 5 hits, 2 misses' "$tmpdir/store_wide.log"
