package spec

import (
	"encoding/json"
	"strings"
	"testing"

	"uavres/internal/core"
	"uavres/internal/mission"
)

// fuzzMaxCases bounds the matrix product (missions x airframes x
// injections per airframe) an input may compile to. A legal spec can ask
// for millions of cases, and compiling one takes the fuzzer's whole
// budget without exercising anything a small matrix does not.
const fuzzMaxCases = 2000

// matrixProduct is the case count an already-validated spec's matrix
// expands to before selectors, in float64 so large axes cannot overflow.
func matrixProduct(s CampaignSpec, scenario []mission.Mission) float64 {
	m, err := s.Matrix.parse()
	if err != nil {
		return 0
	}
	missions := float64(len(scenario))
	if len(s.Missions) > 0 {
		missions = float64(len(s.Missions))
	}
	frames := float64(max(1, len(s.Airframes)) * max(1, len(s.Variants)))
	perFrame := float64(len(m.targets)*len(m.primitives)+len(m.actuators)*len(m.rotors)) *
		float64(len(m.durations)) * float64(len(m.starts))
	return missions * frames * (perFrame + 1)
}

// FuzzParseCompile feeds arbitrary bytes through Parse and Compile: no
// input may panic, and every spec that compiles yields unique case IDs,
// injections with a positive duration and a non-negative start, and
// variant cases whose IDs end in their variant's name. Seed corpus:
// testdata/fuzz/FuzzParseCompile (the example specs, a variants spec, and
// out-of-range times that once compiled to wrapped durations).
func FuzzParseCompile(f *testing.F) {
	scenario := mission.Valencia()
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if matrixProduct(s, scenario) > fuzzMaxCases {
			t.Skip("matrix too large to compile per fuzz input")
		}
		cases, err := s.Compile(scenario)
		if err != nil {
			return
		}
		seen := make(map[string]bool, len(cases))
		for _, c := range cases {
			if seen[c.ID] {
				t.Fatalf("duplicate case ID %q", c.ID)
			}
			seen[c.ID] = true
			if inj := c.Injection; inj != nil && (inj.Duration <= 0 || inj.Start < 0) {
				t.Fatalf("case %s: injection start %v, duration %v", c.ID, inj.Start, inj.Duration)
			}
			if v := c.Variant; (v == nil) != (len(s.Variants) == 0) || v != nil && !strings.HasSuffix(c.ID, "-"+v.Name) {
				t.Fatalf("case %s: variant %+v of a spec with %d variants", c.ID, v, len(s.Variants))
			}
		}
	})
}

// FuzzParseSelector feeds arbitrary strings through ParseSelector: no
// input may panic, and every accepted selector passes Validate, has a
// non-negative mission and survives a JSON round trip (the form a spec's
// select list takes). It also selects: over each mini example spec's
// unselected compile, ApplySelectors keeps what the reference predicate
// keeps, and compiling the spec with the selector as its select list
// gives the same cases. Seed corpus: testdata/fuzz/FuzzParseSelector (the
// selector examples of README.md and ci.sh, a negative mission that once
// parsed and then selected nothing, and selectors on starts, rotors and
// airframes).
func FuzzParseSelector(f *testing.F) {
	type mini struct {
		spec CampaignSpec
		all  []core.Case
	}
	var minis []mini
	for name, s := range exampleSpecs(f) {
		if !strings.HasPrefix(name, "mini-") {
			continue
		}
		all, err := s.Compile(nil)
		if err != nil {
			f.Fatal(err)
		}
		minis = append(minis, mini{s, all})
	}
	f.Fuzz(func(t *testing.T, expr string) {
		s, err := ParseSelector(expr)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSelector(%q) accepted a selector Validate rejects: %v", expr, err)
		}
		if s.Mission < 0 {
			t.Fatalf("ParseSelector(%q) accepted mission %d", expr, s.Mission)
		}
		sels := []Selector{s}
		for _, m := range minis {
			want := referenceSelect(m.all, sels)
			if diff := sameCases(ApplySelectors(m.all, sels), want); diff != "" {
				t.Fatalf("%s, %q: ApplySelectors %s", m.spec.Name, expr, diff)
			}
			spec := m.spec
			spec.Select = sels
			got, err := spec.Compile(nil)
			if err != nil {
				t.Fatalf("%s, %q: %v", m.spec.Name, expr, err)
			}
			if diff := sameCases(got, want); diff != "" {
				t.Fatalf("%s, %q: Compile %s", m.spec.Name, expr, diff)
			}
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %+v: %v", s, err)
		}
		var back Selector
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if (s.Gold == nil) != (back.Gold == nil) || (s.Gold != nil && *s.Gold != *back.Gold) {
			t.Fatalf("gold %v did not survive %s", s.Gold, data)
		}
		s.Gold, back.Gold = nil, nil
		if s != back {
			t.Fatalf("selector %+v came back from %s as %+v", s, data, back)
		}
	})
}
