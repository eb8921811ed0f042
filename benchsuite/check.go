package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"uavres/internal/core"
	"uavres/internal/sim"
	"uavres/internal/spec"
)

// verdict is the per-case tuple the correctness checks compare bit for
// bit: a speed-only change must leave every one of these untouched.
type verdict struct {
	outcome      sim.Outcome
	durationBits uint64
	distanceBits uint64
	inner, outer int
	failsafe     string
	crash        string
}

func verdictOf(r sim.Result) verdict {
	return verdict{
		outcome:      r.Outcome,
		durationBits: math.Float64bits(r.FlightDurationSec),
		distanceBits: math.Float64bits(r.DistanceKm),
		inner:        r.InnerViolations,
		outer:        r.OuterViolations,
		failsafe:     r.FailsafeCause,
		crash:        r.CrashReason,
	}
}

// checkResults validates a results file against the planned cases. A case
// fails when it is missing or duplicated, carries Err, an unenumerated
// outcome or a non-finite number. It returns the verdict of every case
// that passed and the number that failed.
func checkResults(results []core.CaseResult, planned []core.Case) (map[string]verdict, int) {
	want := make(map[string]bool, len(planned))
	for _, c := range planned {
		want[c.ID] = true
	}
	seen := make(map[string]int, len(results))
	verdicts := make(map[string]verdict, len(results))
	failed := 0
	for _, r := range results {
		seen[r.Case.ID]++
		if !want[r.Case.ID] {
			failed++ // a case nobody planned
			continue
		}
		if r.Err != "" || !finiteResult(r.Result) ||
			r.Result.Outcome < sim.OutcomeCompleted || r.Result.Outcome > sim.OutcomeTimeout {
			continue
		}
		verdicts[r.Case.ID] = verdictOf(r.Result)
	}
	for id := range want {
		if seen[id] != 1 {
			delete(verdicts, id)
		}
	}
	return verdicts, failed + len(want) - len(verdicts)
}

func finiteResult(r sim.Result) bool {
	xs := []float64{r.FlightDurationSec, r.DistanceKm}
	if d := r.Diagnostics; d != nil {
		xs = append(xs, d.FirstInnerViolationSec, d.FirstOuterViolationSec, d.DistanceAtFirstOuterKm,
			d.MaxTiltDeg, d.MaxGPSRatio, d.MaxBaroRatio)
	}
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// digest is the sha256 of the sorted per-case verdict tuples.
func digest(verdicts map[string]verdict) string {
	ids := make([]string, 0, len(verdicts))
	for id := range verdicts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		v := verdicts[id]
		fmt.Fprintf(h, "%s %d %x %x %d %d %q %q\n", id, v.outcome, v.durationBits, v.distanceBits,
			v.inner, v.outer, v.failsafe, v.crash)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// oracleCases is how many cases the straight-through re-check re-runs.
const oracleCases = 8

// oracle re-runs oracleCases seed-chosen cases straight through, without
// checkpoints, batches or a store, and counts those whose verdict differs
// from the benchmarked run's. On a workload with a store fixture half of
// them are store hits.
func oracle(w workload, seed int64, got map[string]verdict) (checked, mismatched int, err error) {
	c, err := prepare(w, seed, "", nil, nil, 0)
	if err != nil {
		return 0, 0, err
	}
	picked := pickCases(c.cases, w.fixture, seed)
	c.runner.Checkpoint = false
	c.runner.Batch = false
	for _, r := range c.runner.RunAll(context.Background(), picked) {
		v, ok := got[r.Case.ID]
		if r.Err != "" || !ok || verdictOf(r.Result) != v {
			mismatched++
		}
	}
	return len(picked), mismatched, nil
}

// pickCases chooses oracleCases cases from seed; with a fixture, half
// come from the cases it selects and half from the rest.
func pickCases(cases []core.Case, fixture []spec.Selector, seed int64) []core.Case {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x0ac1e))
	var hits, rest []core.Case
	for _, c := range cases {
		if len(fixture) > 0 && len(spec.ApplySelectors([]core.Case{c}, fixture)) == 1 {
			hits = append(hits, c)
		} else {
			rest = append(rest, c)
		}
	}
	take := func(from []core.Case, n int) []core.Case {
		var out []core.Case
		for _, i := range rng.Perm(len(from)) {
			if len(out) == n {
				break
			}
			out = append(out, from[i])
		}
		return out
	}
	if len(hits) == 0 {
		return take(rest, oracleCases)
	}
	return append(take(hits, oracleCases/2), take(rest, oracleCases-oracleCases/2)...)
}
