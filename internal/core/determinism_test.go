package core

import (
	"reflect"
	"testing"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/sim"
)

// TestSortPrefixKeys locks the chain scheduling order: keys must sort
// by (mission, seed, airframe, variant, family, scope) regardless of the
// map-iteration order they were collected in.
func TestSortPrefixKeys(t *testing.T) {
	env := func(mission int, seed int64, airframe, variant string) envKey {
		return envKey{missionID: mission, seed: seed, airframe: airframe, variant: variant}
	}
	want := []prefixKey{
		{env: env(1, 3, "", ""), scope: faultinject.ScopeAllUnits},
		{env: env(1, 3, "", ""), scope: faultinject.ScopePrimaryUnit},
		{env: env(1, 3, "", ""), actuator: true, scope: faultinject.ScopeAllUnits},
		{env: env(1, 3, "", "thr30"), scope: faultinject.ScopeAllUnits},
		{env: env(1, 3, "hexa-x", ""), scope: faultinject.ScopeAllUnits},
		{env: env(1, 7, "", ""), scope: faultinject.ScopeAllUnits},
		{env: env(2, 1, "", ""), scope: faultinject.ScopeAllUnits},
	}
	// Feed several adversarial permutations; every one must sort to the
	// same canonical order.
	perms := [][]int{
		{6, 5, 4, 3, 2, 1, 0},
		{2, 0, 6, 4, 1, 5, 3},
		{1, 4, 0, 5, 3, 6, 2},
	}
	for _, p := range perms {
		keys := make([]prefixKey, len(want))
		for i, j := range p {
			keys[i] = want[j]
		}
		sortPrefixKeys(keys)
		if !reflect.DeepEqual(keys, want) {
			t.Fatalf("permutation %v sorted to %+v, want %+v", p, keys, want)
		}
	}
}

// TestByFaultOrderStable locks the Table III row order against map
// iteration: repeated aggregation of the same results must produce the
// same row sequence, including among tied completion percentages.
func TestByFaultOrderStable(t *testing.T) {
	var results []CaseResult
	// Several labels per component, all with identical outcomes, so any
	// order leak among tied rows would surface as row shuffling.
	for _, p := range []faultinject.Primitive{faultinject.Zeros, faultinject.Noise, faultinject.Freeze, faultinject.Random} {
		for _, tg := range []faultinject.Target{faultinject.TargetAccel, faultinject.TargetGyro, faultinject.TargetIMU} {
			results = append(results,
				mkResult(1, inj(p, tg, 2*time.Second), sim.OutcomeCrash, 0, 0, 100, 1))
		}
	}
	first := ByFault(results)
	if len(first) != 12 {
		t.Fatalf("rows = %d, want 12", len(first))
	}
	for i := 0; i < 50; i++ {
		again := ByFault(results)
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("iteration %d: row order changed:\n got %+v\nwant %+v", i, again, first)
		}
	}
	// Tied rows fall back to label order within each component group.
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if componentOf(t, a.Label) == componentOf(t, b.Label) && a.CompletedPct == b.CompletedPct && a.Label >= b.Label {
			t.Fatalf("tied rows out of label order: %q before %q", a.Label, b.Label)
		}
	}
}

func componentOf(t *testing.T, label string) string {
	t.Helper()
	for _, tg := range faultinject.Targets() {
		prefix := tg.String() + " "
		if len(label) > len(prefix) && label[:len(prefix)] == prefix {
			return tg.String()
		}
	}
	t.Fatalf("label %q has no component prefix", label)
	return ""
}
