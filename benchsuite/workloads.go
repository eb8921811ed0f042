package main

import (
	_ "embed"
	"fmt"
	"math/rand/v2"

	"uavres/internal/faultinject"
	"uavres/internal/mission"
	"uavres/internal/spec"
)

// workload is one campaign the benchmark runs, built from the seed.
type workload struct {
	name string
	// spec returns the campaign spec for a seed; the seed is the spec
	// seed (and, for scattered-starts, also the plan generator's seed).
	spec func(seed int64) (spec.CampaignSpec, error)
	// fixture, when non-empty, selects the cases of the same spec that are
	// pre-stored, untimed, in a result store each rep starts from a fresh
	// copy of.
	fixture []spec.Selector
}

//go:embed specs/redundancy-750.json
var redundancySpec []byte

// workloads is the benchmark's workload table in run order; BENCHMARK.json
// records why each one is there.
var workloads = []workload{
	{name: "paper-850", spec: paperSpec},
	{name: "redundancy-750", spec: func(seed int64) (spec.CampaignSpec, error) {
		s, err := spec.Parse(redundancySpec)
		s.Seed = seed
		return s, err
	}},
	{name: "scattered-starts", spec: func(seed int64) (spec.CampaignSpec, error) {
		return scatteredSpec(seed), nil
	}},
	{name: "grid-extend", spec: paperSpec, fixture: []spec.Selector{
		{DurationSec: 2}, {DurationSec: 5}, {Gold: boolPtr(true)},
	}},
}

func paperSpec(seed int64) (spec.CampaignSpec, error) { return spec.Paper(seed), nil }

func boolPtr(b bool) *bool { return &b }

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Scattered-starts plan: every (mission, start) pair gets exactly one
// fault, so no two cases share a pre-injection prefix.
const (
	scatterFirstStart = 30.0
	scatterStep       = 7.5
	scatterStarts     = 23 // 30 s ... 195 s
)

var scatterDurations = []float64{10, 30}

// scatteredSpec draws the scattered-starts plan from seed: for each
// mission, one injection type, duration and start time per start slot.
// Injection types are dealt from a shuffled deck of all 21, and the two
// durations alternate through a shuffled order, so every seed keeps the
// same fault mix and only the pairing with start times moves. The plan is
// a spec over the full 10 missions x 21 types x 2 durations x 23 starts
// matrix whose select clauses keep one cell per (mission, start).
func scatteredSpec(seed int64) spec.CampaignSpec {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5ca77e2ed))
	type fault struct {
		target faultinject.Target
		prim   faultinject.Primitive
	}
	var types []fault
	for _, t := range faultinject.Targets() {
		for _, p := range faultinject.Primitives() {
			types = append(types, fault{t, p})
		}
	}
	starts := make([]float64, scatterStarts)
	for i := range starts {
		starts[i] = scatterFirstStart + scatterStep*float64(i)
	}
	var sels []spec.Selector
	for _, m := range mission.Valencia() {
		deck := rng.Perm(len(types))
		durs := rng.Perm(scatterStarts)
		for i, start := range starts {
			f := types[deck[i%len(deck)]]
			sels = append(sels, spec.Selector{
				Mission:     m.ID,
				Target:      f.target.String(),
				Primitive:   f.prim.String(),
				DurationSec: scatterDurations[durs[i]%len(scatterDurations)],
				StartSec:    start,
			})
		}
	}
	return spec.CampaignSpec{
		Version: spec.Version,
		Name:    "scattered-starts",
		Seed:    seed,
		Gold:    boolPtr(false),
		Matrix:  spec.Matrix{DurationsSec: scatterDurations, StartsSec: starts},
		Select:  sels,
	}
}
