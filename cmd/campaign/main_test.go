package main

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"uavres/internal/mission"
	"uavres/internal/spec"
)

// TestPrintedSpecIsTheRunPlan: a CLI -select ANDs with the spec's own
// select list, and the spec -print-spec prints compiles to exactly the
// cases the run flies. On the redundancy-ablation example (missions 1, 4
// and 7) -select target=gyro keeps those missions' 54 gyro cases, the
// ones filtering the spec's own compile keeps, not the 234 of ORing the
// two lists.
func TestPrintedSpecIsTheRunPlan(t *testing.T) {
	const path = "../../examples/specs/redundancy-ablation.json"
	cli, err := spec.ParseSelector("target=gyro")
	if err != nil {
		t.Fatal(err)
	}
	run, err := effectiveSpec(path, 1, false, []spec.Selector{cli})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(run, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	printed, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	base, err := effectiveSpec(path, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}

	got := caseIDs(t, run, nil)
	if len(got) != 54 {
		t.Errorf("run compiles to %d cases, want 54", len(got))
	}
	if want := caseIDs(t, printed, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("printed spec compiles to %d cases, the run to %d", len(want), len(got))
	}
	if want := caseIDs(t, base, []spec.Selector{cli}); !reflect.DeepEqual(got, want) {
		t.Errorf("folded select keeps %d cases, filtering keeps %d", len(got), len(want))
	}
}

// caseIDs compiles s and lists the IDs of the cases sels keep (all of
// them when sels is empty).
func caseIDs(t *testing.T, s spec.CampaignSpec, sels []spec.Selector) []string {
	t.Helper()
	cases, err := s.Compile(mission.Valencia())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, c := range spec.ApplySelectors(cases, sels) {
		ids = append(ids, c.ID)
	}
	return ids
}

// TestRunHashIsTheSpecHash: with no flag but the spec, a run's results
// header carries the hash of the spec file as written (the hash
// -validate-spec prints), and the built-in run the hash of spec.Paper.
func TestRunHashIsTheSpecHash(t *testing.T) {
	paths, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs: %v", err)
	}
	for _, path := range paths {
		file, err := spec.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		run, err := effectiveSpec(path, 1, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := run.Hash(), file.Hash(); got != want {
			t.Errorf("%s: run header hash %s, spec file hash %s", filepath.Base(path), got, want)
		}
	}
	run, err := effectiveSpec("", 2, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := run.Hash(), spec.Paper(2).Hash(); got != want {
		t.Errorf("built-in run header hash %s, spec.Paper(2) hash %s", got, want)
	}
}
