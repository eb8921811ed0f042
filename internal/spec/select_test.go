package spec

import (
	"fmt"
	"math/rand/v2"
	"path"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/mission"
	"uavres/internal/physics"
)

// referenceMatches is the selector predicate as it was before selectors
// were compiled: it re-parses every field per case. Compile's pruning and
// the compiled matcher must agree with it on every case.
func referenceMatches(s Selector, c core.Case) bool {
	if s.ID != "" {
		if ok, _ := path.Match(s.ID, c.ID); !ok && s.ID != c.ID {
			return false
		}
	}
	if s.Mission != 0 && c.MissionID != s.Mission {
		return false
	}
	if s.Gold != nil && *s.Gold != (c.Injection == nil) {
		return false
	}
	if s.Airframe != "" {
		want, err := physics.ParseAirframe(s.Airframe)
		if err != nil {
			return false
		}
		have := physics.QuadX
		if c.Airframe != "" {
			if have, err = physics.ParseAirframe(c.Airframe); err != nil {
				return false
			}
		}
		if have != want {
			return false
		}
	}
	injectionFieldSet := s.Target != "" || s.Primitive != "" || s.DurationSec != 0 || s.StartSec != 0
	if c.Injection == nil {
		return !injectionFieldSet
	}
	if s.Target != "" {
		t, err := faultinject.ParseTarget(s.Target)
		if err != nil || c.Injection.Target != t {
			return false
		}
	}
	if s.Primitive != "" {
		p, err := faultinject.ParsePrimitive(s.Primitive)
		if err != nil || c.Injection.Primitive != p {
			return false
		}
	}
	if s.DurationSec != 0 {
		if d, err := durationSec(s.DurationSec); err != nil || c.Injection.Duration != d {
			return false
		}
	}
	if s.StartSec != 0 {
		if st, err := startSec(s.StartSec); err != nil || c.Injection.Start != st {
			return false
		}
	}
	return true
}

// referenceSelect keeps the cases referenceMatches keeps for any
// selector, in order.
func referenceSelect(cases []core.Case, sels []Selector) []core.Case {
	if len(sels) == 0 {
		return cases
	}
	var out []core.Case
	for _, c := range cases {
		for _, s := range sels {
			if referenceMatches(s, c) {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// scatteredSpec is a 10-mission x 21-type x 2-duration x 23-start matrix
// (9,660 cells, no gold runs) whose 230 selectors keep one seeded cell
// per (mission, start): a small selected slice of a large matrix.
func scatteredSpec(seed int64) CampaignSpec {
	rng := rand.New(rand.NewPCG(uint64(seed), 7))
	durs := []float64{10, 30}
	starts := make([]float64, 23)
	for i := range starts {
		starts[i] = 30 + 7.5*float64(i)
	}
	var sels []Selector
	for _, m := range mission.Valencia() {
		for _, start := range starts {
			t := faultinject.Targets()[rng.IntN(3)]
			p := faultinject.Primitives()[rng.IntN(7)]
			sels = append(sels, Selector{
				Mission:     m.ID,
				Target:      t.String(),
				Primitive:   p.String(),
				DurationSec: durs[rng.IntN(2)],
				StartSec:    start,
			})
		}
	}
	return CampaignSpec{
		Version: Version,
		Name:    "scattered",
		Seed:    seed,
		Gold:    boolp(false),
		Matrix:  Matrix{DurationsSec: durs, StartsSec: starts},
		Select:  sels,
	}
}

// exampleSpecs loads every shipped example spec, keyed by file name.
func exampleSpecs(t testing.TB) map[string]CampaignSpec {
	t.Helper()
	files, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example specs: %v", err)
	}
	out := map[string]CampaignSpec{}
	for _, f := range files {
		s, err := Load(f)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = s
	}
	return out
}

// sameCases describes the first difference between two case lists, or
// returns "" when they are equal case by case, injections included.
func sameCases(got, want []core.Case) string {
	if len(got) != len(want) {
		return fmt.Sprintf("kept %d cases, reference keeps %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("case %d is %+v, reference %+v", i, got[i], want[i])
		}
	}
	return ""
}

// TestCompileSelectsLikeReference: compiling with a select list keeps
// exactly the cases, in the same order and with the same IDs, seeds and
// injections, that the reference predicate keeps from the unselected
// compile. Every spec is tried under its own select list and a set of
// probe lists that reach each expansion level.
func TestCompileSelectsLikeReference(t *testing.T) {
	specs := exampleSpecs(t)
	specs["paper(1)"] = Paper(1)
	specs["scattered(2)"] = scatteredSpec(2)
	probes := [][]Selector{
		{{Mission: 4}},
		{{Mission: 1}, {Mission: 7, Gold: boolp(true)}},
		{{Target: "gyro", DurationSec: 10}},
		{{Gold: boolp(true)}},
		{{Gold: boolp(false), Airframe: "hexa-x"}},
		{{Airframe: "quad-x", Primitive: "freeze"}},
		{{ID: "m01-*"}, {ID: "*-t60s*"}},
		{{ID: "m02-gold"}, {ID: "m01-r0-loe-10s-hexa"}},
		{{Mission: 1, ID: "*zeros*"}},
		{{Target: "rotor"}, {Primitive: "loe", StartSec: 30}},
		{{StartSec: 60}, {DurationSec: 2, StartSec: 120}},
		{{Mission: 3, Target: "imu", Primitive: "noise", DurationSec: 30, StartSec: 90}},
	}
	for name, s := range specs {
		lists := probes
		if len(s.Select) > 0 {
			lists = append([][]Selector{s.Select}, probes...)
		}
		all := s
		all.Select = nil
		unselected, err := all.Compile(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, sels := range lists {
			sel := s
			sel.Select = sels
			got, err := sel.Compile(nil)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, sels, err)
			}
			want := referenceSelect(unselected, sels)
			if err := sameCases(got, want); err != "" {
				t.Errorf("%s %+v: Compile %s", name, sels, err)
			}
			if err := sameCases(ApplySelectors(unselected, sels), want); err != "" {
				t.Errorf("%s %+v: ApplySelectors %s", name, sels, err)
			}
		}
	}
}

// TestSelectorEdges pins the matching rules on hand-built cases, for
// Matches, ApplySelectors and the reference alike, with selectors that
// reach ApplySelectors unvalidated.
func TestSelectorEdges(t *testing.T) {
	gold := core.Case{ID: "m01-gold", MissionID: 1}
	hexaGold := core.Case{ID: "m01-gold-hexa", MissionID: 1, Airframe: "hexa-x"}
	faulty := core.Case{ID: "m01-gyro-freeze-10s", MissionID: 1, Injection: &faultinject.Injection{
		Target: faultinject.TargetGyro, Primitive: faultinject.Freeze,
		Start: 90 * time.Second, Duration: 10 * time.Second,
	}}
	atZero := core.Case{ID: "m01-gyro-freeze-10s-t0s", MissionID: 1, Injection: &faultinject.Injection{
		Target: faultinject.TargetGyro, Primitive: faultinject.Freeze, Duration: 10 * time.Second,
	}}
	rotor := core.Case{ID: "m01-r0-loe-10s", MissionID: 1, Injection: &faultinject.Injection{
		Target: faultinject.TargetRotor, Primitive: faultinject.LossOfEffectiveness,
		Start: 90 * time.Second, Duration: 10 * time.Second,
	}}
	badFrame := core.Case{ID: "m01-gold-warp", MissionID: 1, Airframe: "warp-core"}
	bracket := core.Case{ID: "[", MissionID: 1}
	for _, tt := range []struct {
		name string
		sel  Selector
		c    core.Case
		want bool
	}{
		{"literal id", Selector{ID: "m01-gold"}, gold, true},
		{"literal id other case", Selector{ID: "m01-gold"}, faulty, false},
		{"glob id", Selector{ID: "m01-*-10s"}, faulty, true},
		{"glob id miss", Selector{ID: "m02-*"}, faulty, false},
		{"malformed glob matches exactly", Selector{ID: "["}, bracket, true},
		{"malformed glob miss", Selector{ID: "["}, gold, false},
		{"empty selector keeps all", Selector{}, faulty, true},
		{"gold true on gold", Selector{Gold: boolp(true)}, gold, true},
		{"gold true on faulty", Selector{Gold: boolp(true)}, faulty, false},
		{"gold false on gold", Selector{Gold: boolp(false)}, gold, false},
		{"gold false on faulty", Selector{Gold: boolp(false)}, faulty, true},
		{"injection field never matches gold", Selector{Target: "gyro"}, gold, false},
		{"start never matches gold", Selector{StartSec: 90}, gold, false},
		{"quad-x on empty airframe", Selector{Airframe: "quad-x"}, gold, true},
		{"quad-x on hexa-x", Selector{Airframe: "quad"}, hexaGold, false},
		{"hexa-x on hexa-x", Selector{Airframe: "hexa"}, hexaGold, true},
		{"hexa-x on empty airframe", Selector{Airframe: "hexa-x"}, gold, false},
		{"unparseable case airframe", Selector{Airframe: "quad-x"}, badFrame, false},
		{"unparseable case airframe, no airframe field", Selector{Mission: 1}, badFrame, true},
		{"mission miss", Selector{Mission: 2}, faulty, false},
		{"target and primitive", Selector{Target: "gyroscope", Primitive: "FREEZE"}, faulty, true},
		{"target rotor", Selector{Target: "rotor"}, rotor, true},
		{"sensor target on rotor", Selector{Target: "gyro"}, rotor, false},
		{"duration", Selector{DurationSec: 10}, faulty, true},
		{"duration miss", Selector{DurationSec: 5}, faulty, false},
		{"start", Selector{StartSec: 90}, faulty, true},
		{"start zero means any", Selector{StartSec: 0, Target: "gyro"}, atZero, true},
		{"start rounding to 0 ns matches 0 s only", Selector{StartSec: 1e-12}, atZero, true},
		{"start rounding to 0 ns at 90 s", Selector{StartSec: 1e-12}, faulty, false},
		{"unparseable target", Selector{Target: "warp"}, faulty, false},
		{"unparseable target on gold", Selector{Target: "warp"}, gold, false},
		{"unparseable primitive", Selector{Primitive: "melt"}, faulty, false},
		{"unparseable airframe", Selector{Airframe: "warp-core"}, gold, false},
		{"unparseable duration", Selector{DurationSec: -1}, faulty, false},
		{"duration rounding to 0 ns", Selector{DurationSec: 1e-12}, faulty, false},
		{"unparseable start", Selector{StartSec: -5}, faulty, false},
		{"unparseable field on gold with gold=true", Selector{Gold: boolp(true), Airframe: "warp"}, gold, false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if got := referenceMatches(tt.sel, tt.c); got != tt.want {
				t.Fatalf("reference = %v, want %v", got, tt.want)
			}
			if got := tt.sel.Matches(tt.c); got != tt.want {
				t.Errorf("Matches = %v, want %v", got, tt.want)
			}
			kept := ApplySelectors([]core.Case{tt.c}, []Selector{{Mission: 99}, tt.sel})
			if got := len(kept) == 1; got != tt.want {
				t.Errorf("ApplySelectors kept %d, want match %v", len(kept), tt.want)
			}
		})
	}
}

// TestCompileMissingRotorFailsUnderSelection: a rotor the airframe lacks
// fails the compile even when no selector would keep its cells.
func TestCompileMissingRotorFailsUnderSelection(t *testing.T) {
	s := airframeSpec("quad-x", "octo-x")
	s.Matrix.Actuators = []string{"loe"}
	s.Matrix.ActuatorRotors = []int{6}
	s.Select = []Selector{{Airframe: "octo-x", Target: "gyro"}}
	_, err := s.Compile(nil)
	if err == nil || !strings.Contains(err.Error(), "actuator rotor 6 does not exist on quad-x") {
		t.Errorf("compile error %v, want the missing quad-x rotor 6", err)
	}
}

// TestCompileSelectedAllocs: compiling the 9,660-cell, 230-selector
// matrix allocates in proportion to the 230 kept cases, not the cells.
// go1.24.0 measured 3,540 allocations, about 15 per kept case (its ID
// string is most of them); the ceiling leaves about 25% room. Compiling
// every cell and filtering afterwards made 401,707.
func TestCompileSelectedAllocs(t *testing.T) {
	s := scatteredSpec(2)
	scenario := mission.Valencia()
	cases, err := s.Compile(scenario)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 230 {
		t.Fatalf("kept %d cases, want 230", len(cases))
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Compile(scenario); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4400 {
		t.Errorf("compile made %.0f allocations, ceiling 4400", allocs)
	}
}

// TestAndSelectors: the folded list keeps exactly the cases both lists
// keep, drops the pairs whose terms conflict, and refuses two different
// ID patterns and two lists with no pair that can match.
func TestAndSelectors(t *testing.T) {
	all, err := Paper(1).Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	lists := [][]Selector{
		nil,
		{{Mission: 4}, {Mission: 7, Target: "gyro"}},
		{{Target: "gyrometer"}, {Gold: boolp(true)}},
		{{DurationSec: 10, Primitive: "freeze"}, {ID: "m07-*"}},
		{{ID: "m07-*", StartSec: 90}},
	}
	for i, a := range lists {
		for j, b := range lists {
			both, err := AndSelectors(a, b)
			if err != nil {
				t.Fatalf("lists %d and %d: %v", i, j, err)
			}
			want := referenceSelect(referenceSelect(all, a), b)
			if msg := sameCases(referenceSelect(all, both), want); msg != "" {
				t.Errorf("lists %d and %d: folded %+v: %s", i, j, both, msg)
			}
		}
	}

	both, err := AndSelectors([]Selector{{Mission: 4}, {Mission: 7}}, []Selector{{Mission: 7, Target: "acc"}})
	if err != nil || len(both) != 1 || both[0].Mission != 7 || both[0].Target != "acc" {
		t.Errorf("conflicting pair kept: %+v, %v", both, err)
	}
	if _, err := AndSelectors([]Selector{{ID: "m04-*"}}, []Selector{{ID: "*freeze*"}}); err == nil {
		t.Error("two different id patterns folded into one")
	}
	if _, err := AndSelectors([]Selector{{Mission: 4}}, []Selector{{Mission: 7}}); err == nil {
		t.Error("lists with no common case folded into a keep-everything list")
	}
}
