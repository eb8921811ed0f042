package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/mission"
	"uavres/internal/sim"
)

// TestPaperSpecGolden: the built-in paper spec must compile to exactly
// the cases the legacy core.Plan produced — same count, same order, same
// IDs, same environment and injection seeds — for several base seeds.
// This is the contract that lets every spec consumer (campaign, resume,
// bench) replace Plan without changing a single verdict.
func TestPaperSpecGolden(t *testing.T) {
	for _, seed := range []int64{1, 2, 42, 1 << 40} {
		want := core.Plan(mission.Valencia(), seed)
		got, err := Paper(seed).Compile(mission.Valencia())
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: compiled %d cases, Plan makes %d", seed, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("seed %d: case %d differs:\n spec %+v\n plan %+v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestPaperSpecCount(t *testing.T) {
	cases, err := Paper(1).Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 850 {
		t.Fatalf("paper spec compiled to %d cases, want 850", len(cases))
	}
}

func TestCompileRejectsBadSpecs(t *testing.T) {
	for name, s := range map[string]CampaignSpec{
		"version":   {Version: 2},
		"target":    {Version: 1, Matrix: Matrix{Targets: []string{"wing"}}},
		"primitive": {Version: 1, Matrix: Matrix{Primitives: []string{"explode"}}},
		"duration":  {Version: 1, Matrix: Matrix{DurationsSec: []float64{-1}}},
		"start":     {Version: 1, Matrix: Matrix{StartsSec: []float64{-5}}},
		// Out-of-range seconds must not wrap or round into a legal-looking
		// injection: the converted time.Duration is what gets checked.
		"duration-overflow": {Version: 1, Matrix: Matrix{DurationsSec: []float64{1e300}}},
		"start-overflow":    {Version: 1, Matrix: Matrix{StartsSec: []float64{1e300}}},
		"duration-zero-ns":  {Version: 1, Matrix: Matrix{DurationsSec: []float64{1e-12}}},
		"scope":             {Version: 1, Matrix: Matrix{Scope: "tertiary"}},
		"mission":           {Version: 1, Missions: []int{99}},
		"decim":             {Version: 1, Overrides: core.Overrides{CovDecimation: intp(0)}},
		"variant-name":      {Version: 1, Variants: []core.Variant{{Name: "Thr 30"}}},
		"variant-unnamed":   {Version: 1, Variants: []core.Variant{{}}},
		"variant-dup":       {Version: 1, Variants: []core.Variant{{Name: "a"}, {Name: "a"}}},
		"variant-decim": {Version: 1, Variants: []core.Variant{
			{Name: "a", Overrides: core.Overrides{CovDecimation: intp(0)}}}},
		// A negative mission ID once validated and selected nothing.
		"select-mission": {Version: 1, Select: []Selector{{Mission: -3}}},
	} {
		if _, err := s.Compile(mission.Valencia()); err == nil {
			t.Errorf("%s: bad spec compiled without error", name)
		}
	}
}

func intp(v int) *int         { return &v }
func boolp(v bool) *bool      { return &v }
func f64p(v float64) *float64 { return &v }

func TestCompileMissionSubsetAndGoldOff(t *testing.T) {
	s := Paper(1)
	s.Missions = []int{4, 7}
	s.Gold = boolp(false)
	cases, err := s.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 2*84 {
		t.Fatalf("compiled %d cases, want 168", len(cases))
	}
	for _, c := range cases {
		if c.MissionID != 4 && c.MissionID != 7 {
			t.Fatalf("unexpected mission %d", c.MissionID)
		}
		if c.Injection == nil {
			t.Fatalf("gold case %s compiled with gold=false", c.ID)
		}
	}
}

// TestCompileGridIDsAndSeeds: off-paper starts gain an ID suffix and an
// independent injection seed; fractional durations stay unique too.
func TestCompileGridIDsAndSeeds(t *testing.T) {
	s := CampaignSpec{
		Version: 1,
		Gold:    boolp(false),
		Matrix: Matrix{
			Targets:      []string{"gyro"},
			Primitives:   []string{"freeze"},
			DurationsSec: []float64{10},
			StartsSec:    []float64{30, 90, 120},
		},
		Missions: []int{1},
	}
	cases, err := s.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 3 {
		t.Fatalf("compiled %d cases, want 3", len(cases))
	}
	wantIDs := []string{"m01-gyro-freeze-10s-t30s", "m01-gyro-freeze-10s", "m01-gyro-freeze-10s-t120s"}
	seeds := map[int64]bool{}
	for i, c := range cases {
		if c.ID != wantIDs[i] {
			t.Errorf("case %d ID = %q, want %q", i, c.ID, wantIDs[i])
		}
		if seeds[c.Injection.Seed] {
			t.Errorf("injection seed %d reused across starts", c.Injection.Seed)
		}
		seeds[c.Injection.Seed] = true
	}
	// The T+90 case must keep the legacy seed (resume compatibility).
	legacy := core.CaseSeed(2, 1, int(faultinject.TargetGyro), int(faultinject.Freeze), 10)
	if cases[1].Injection.Seed != legacy {
		t.Errorf("paper-start seed %d != legacy %d", cases[1].Injection.Seed, legacy)
	}

	s.Matrix.StartsSec = []float64{90}
	s.Matrix.DurationsSec = []float64{0.5, 2.5}
	cases, err = s.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cases[0].ID != "m01-gyro-freeze-0.5s" || cases[1].ID != "m01-gyro-freeze-2.5s" {
		t.Errorf("fractional-duration IDs = %q, %q", cases[0].ID, cases[1].ID)
	}
	if cases[0].Injection.Seed == cases[1].Injection.Seed {
		t.Error("fractional durations share an injection seed")
	}
}

func TestScopeCompiles(t *testing.T) {
	s := Paper(1)
	s.Matrix.Scope = "primary"
	cases, err := s.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.Injection != nil && c.Injection.Scope != faultinject.ScopePrimaryUnit {
			t.Fatalf("%s: scope %v, want primary-unit", c.ID, c.Injection.Scope)
		}
	}
}

func TestOverridesApply(t *testing.T) {
	cfg := sim.DefaultConfig()
	o := core.Overrides{
		GyroThresholdDegS: f64p(120),
		RiskR:             f64p(2.5),
		CovDecimation:     intp(1),
		CovSettleSec:      f64p(3),
		RedundancyVoting:  boolp(false),
	}
	o.Apply(&cfg)
	if cfg.RiskR != 2.5 || cfg.EKF.CovarianceDecimation != 1 || cfg.CovSettleSec != 3 || cfg.RedundancyVoting {
		t.Errorf("overrides not applied: %+v", cfg)
	}
	def := sim.DefaultConfig()
	if cfg.Failsafe.GyroRateThreshold <= def.Failsafe.GyroRateThreshold {
		t.Error("gyro threshold override not applied")
	}
	// A zero Overrides must leave the config untouched.
	clean := sim.DefaultConfig()
	core.Overrides{}.Apply(&clean)
	if !reflect.DeepEqual(clean, def) {
		t.Error("zero overrides mutated the config")
	}
}

func TestParseRoundTripAndUnknownFields(t *testing.T) {
	s := Paper(7)
	s.Matrix.Scope = "primary"
	s.Overrides.RiskR = f64p(2)
	s.Select = []Selector{{Mission: 4}}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Errorf("round trip changed the spec:\n in  %+v\n out %+v", s, back)
	}
	if _, err := Parse([]byte(`{"version":1,"missoins":[1]}`)); err == nil {
		t.Error("typoed field accepted silently")
	}
	if !strings.Contains(string(data), `"version":1`) {
		t.Errorf("serialized spec missing version: %s", data)
	}
}

// TestParseRejectsBadSpecs: a spec file that is not JSON, carries an
// unknown field or a foreign version fails Parse, and one naming a
// mission the table lacks parses but fails Compile, before any case runs.
func TestParseRejectsBadSpecs(t *testing.T) {
	for name, bad := range map[string]string{
		"not json":      `{`,
		"unknown field": `{"version": 1, "bogus": true}`,
		"wrong version": `{"version": 99}`,
		"seeds block":   `{"version": 1, "seeds": {"kind": "affine"}}`,
		"rng policy":    `{"version": 1, "overrides": {"rng_policy": "polar"}}`,
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("%s: Parse accepted %s", name, bad)
		}
	}
	s, err := Parse([]byte(`{"version": 1, "missions": [42]}`))
	if err != nil {
		t.Fatalf("unknown mission: Parse: %v", err)
	}
	if _, err := s.Compile(mission.Valencia()); err == nil {
		t.Error("unknown mission: spec compiled without error")
	}
}

func TestSelectors(t *testing.T) {
	cases, err := Paper(1).Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	count := func(sels ...Selector) int { return len(ApplySelectors(cases, sels)) }

	if n := count(Selector{ID: "m04-gyro-freeze-10s"}); n != 1 {
		t.Errorf("exact ID matched %d cases", n)
	}
	if n := count(Selector{ID: "m04-*"}); n != 85 {
		t.Errorf("glob m04-* matched %d cases, want 85", n)
	}
	if n := count(Selector{Mission: 4}); n != 85 {
		t.Errorf("mission=4 matched %d cases, want 85", n)
	}
	if n := count(Selector{Target: "gyro"}); n != 280 {
		t.Errorf("target=gyro matched %d cases, want 280", n)
	}
	if n := count(Selector{Primitive: "freeze"}); n != 120 {
		t.Errorf("primitive=freeze matched %d cases, want 120", n)
	}
	if n := count(Selector{DurationSec: 10}); n != 210 {
		t.Errorf("duration=10 matched %d cases, want 210", n)
	}
	if n := count(Selector{Gold: boolp(true)}); n != 10 {
		t.Errorf("gold=true matched %d cases, want 10", n)
	}
	if n := count(Selector{Mission: 4, Target: "gyro", Primitive: "freeze", DurationSec: 10}); n != 1 {
		t.Errorf("field AND matched %d cases, want 1", n)
	}
	// OR across selectors.
	if n := count(Selector{Mission: 4}, Selector{Mission: 7}); n != 170 {
		t.Errorf("mission 4 OR 7 matched %d cases, want 170", n)
	}
	// Injection fields never match gold runs.
	for _, c := range ApplySelectors(cases, []Selector{{Target: "gyro"}}) {
		if c.Injection == nil {
			t.Fatal("target selector matched a gold case")
		}
	}
}

func TestParseSelector(t *testing.T) {
	s, err := ParseSelector("mission=4,target=gyro,primitive=freeze,duration=10s")
	if err != nil {
		t.Fatal(err)
	}
	want := Selector{Mission: 4, Target: "gyro", Primitive: "freeze", DurationSec: 10}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("parsed %+v, want %+v", s, want)
	}
	if s, err = ParseSelector("m04-*"); err != nil || s.ID != "m04-*" {
		t.Errorf("bare glob: %+v, %v", s, err)
	}
	if s, err = ParseSelector("gold=true"); err != nil || s.Gold == nil || !*s.Gold {
		t.Errorf("gold: %+v, %v", s, err)
	}
	if s, err = ParseSelector("duration=2.5"); err != nil || s.DurationSec != 2.5 {
		t.Errorf("bare seconds: %+v, %v", s, err)
	}
	for _, bad := range []string{"planet=mars", "mission=abc", "duration=-1", "gold=maybe", "",
		"duration=1e300", "start=1e300", "duration=1e-12", "mission=-3", "m=m-1", "\xff"} {
		if _, err := ParseSelector(bad); err == nil {
			t.Errorf("ParseSelector(%q) accepted", bad)
		}
	}
	// A zero start or duration means any, so "start=0" would keep every
	// start; it is rejected rather than silently widened.
	for _, zero := range []string{"mission=1,start=0", "start=0s", "duration=0", "dur=-0"} {
		if _, err := ParseSelector(zero); err == nil || !strings.Contains(err.Error(), "0 means any") {
			t.Errorf("ParseSelector(%q) = %v, want the 0-means-any error", zero, err)
		}
	}
}

// TestIDGlobMatchesSubstring pins that the ID glob "*SUBSTR*" selects
// exactly the cases whose ID contains SUBSTR.
func TestIDGlobMatchesSubstring(t *testing.T) {
	cases, err := Paper(1).Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, substr := range []string{"m04", "gyro", "freeze-10s"} {
		sel := Selector{ID: "*" + substr + "*"}
		var want int
		for _, c := range cases {
			if strings.Contains(c.ID, substr) {
				want++
			}
		}
		if got := len(ApplySelectors(cases, []Selector{sel})); got != want {
			t.Errorf("id=*%s*: glob matched %d, substring matches %d", substr, got, want)
		}
	}
}

func TestFingerprintStability(t *testing.T) {
	cases, err := Paper(1).Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	c := cases[1]
	h1 := Fingerprint(c, cfg)
	h2 := Fingerprint(c, cfg)
	if h1 == "" || h1 != h2 {
		t.Fatalf("fingerprint unstable: %q vs %q", h1, h2)
	}
	// The case's own Hash field must not feed back into the digest.
	c.Hash = "something"
	if Fingerprint(c, cfg) != h1 {
		t.Error("hash field fed back into the fingerprint")
	}
	// Any config or experiment change must change the hash.
	cfg2 := cfg
	cfg2.Failsafe.GyroRateThreshold *= 2
	if Fingerprint(c, cfg2) == h1 {
		t.Error("config change kept the fingerprint")
	}
	c2 := c
	c2.Injection = nil
	if Fingerprint(c2, cfg) == h1 {
		t.Error("injection change kept the fingerprint")
	}
	c3 := c
	c3.Seed++
	if Fingerprint(c3, cfg) == h1 {
		t.Error("seed change kept the fingerprint")
	}
}

// fingerprintPayload is the struct whose json.Marshal encoding the
// fingerprint digests; fingerprint assembles the same bytes from the case
// and a config encoded once.
type fingerprintPayload struct {
	Version int        `json:"version"`
	Case    core.Case  `json:"case"`
	Config  sim.Config `json:"config"`
}

// TestAttachFingerprints: every example spec's cases, under the default
// config, its own overrides and primary-unit scope, get distinct
// fingerprints equal to Fingerprint's and to the digest of the
// fingerprintPayload encoding.
func TestAttachFingerprints(t *testing.T) {
	for name, s := range exampleSpecs(t) {
		primary := s
		primary.Matrix.Scope = "primary"
		overridden := sim.DefaultConfig()
		s.Overrides.Apply(&overridden)
		for _, v := range []struct {
			label string
			spec  CampaignSpec
			cfg   sim.Config
		}{
			{"default config", s, sim.DefaultConfig()},
			{"spec overrides", s, overridden},
			{"primary scope", primary, overridden},
		} {
			cases, err := v.spec.Compile(nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			AttachFingerprints(cases, v.cfg)
			seen := map[string]bool{}
			for _, c := range cases {
				if c.Hash == "" || seen[c.Hash] {
					t.Fatalf("%s, %s: %s: empty or colliding fingerprint %q", name, v.label, c.ID, c.Hash)
				}
				seen[c.Hash] = true
				if want := Fingerprint(c, v.cfg); c.Hash != want {
					t.Fatalf("%s, %s: %s: AttachFingerprints %s, Fingerprint %s", name, v.label, c.ID, c.Hash, want)
				}
				ref := c
				ref.Hash = ""
				payload, err := json.Marshal(fingerprintPayload{Version: Version, Case: ref, Config: v.cfg})
				if err != nil {
					t.Fatal(err)
				}
				if sum := sha256.Sum256(payload); c.Hash != hex.EncodeToString(sum[:8]) {
					t.Fatalf("%s, %s: %s: fingerprint %s is not the payload digest %x", name, v.label, c.ID, c.Hash, sum[:8])
				}
			}
		}
	}
}

func TestSpecHashDistinguishesSpecs(t *testing.T) {
	a, b := Paper(1), Paper(2)
	if a.Hash() == "" || a.Hash() != Paper(1).Hash() {
		t.Error("spec hash unstable")
	}
	if a.Hash() == b.Hash() {
		t.Error("different seeds share a spec hash")
	}
	if !strings.Contains(a.String(), "paper-850") {
		t.Errorf("String() = %q", a.String())
	}
}

func TestCompileDuplicateIDRejected(t *testing.T) {
	s := CampaignSpec{
		Version:  1,
		Gold:     boolp(false),
		Missions: []int{1},
		Matrix: Matrix{
			Targets:      []string{"gyro", "gyrometer"}, // same target twice
			Primitives:   []string{"freeze"},
			DurationsSec: []float64{10},
		},
	}
	if _, err := s.Compile(nil); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate matrix axes compiled: %v", err)
	}
}

func TestCompileSharesEnvSeedPerMission(t *testing.T) {
	// Checkpoint-and-fork depends on every case of a mission sharing one
	// env seed and start; the compiler must preserve that invariant.
	cases, err := Paper(5).Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	perMission := map[int]int64{}
	for _, c := range cases {
		if s, ok := perMission[c.MissionID]; ok {
			if c.Seed != s {
				t.Fatalf("%s: env seed %d, mission uses %d", c.ID, c.Seed, s)
			}
		} else {
			perMission[c.MissionID] = c.Seed
		}
		if c.Injection != nil && c.Injection.Start != 90*time.Second {
			t.Fatalf("%s: start %v", c.ID, c.Injection.Start)
		}
	}
}

// TestExampleSpecsCompile: the shipped example specs stay loadable, and
// the paper-850 example is byte-identical to the built-in plan.
func TestExampleSpecsCompile(t *testing.T) {
	paper, err := Load("../../examples/specs/paper-850.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := paper.Compile(mission.Valencia())
	if err != nil {
		t.Fatal(err)
	}
	want := core.Plan(mission.Valencia(), paper.Seed)
	if !reflect.DeepEqual(got, want) {
		t.Error("examples/specs/paper-850.json no longer reproduces core.Plan")
	}

	abl, err := Load("../../examples/specs/redundancy-ablation.json")
	if err != nil {
		t.Fatal(err)
	}
	cases, err := abl.Compile(mission.Valencia())
	if err != nil {
		t.Fatal(err)
	}
	// 3 selected missions x 2 targets x 3 primitives x 2 durations x 3
	// starts, no gold runs.
	if len(cases) != 3*2*3*2*3 {
		t.Errorf("ablation spec compiled %d cases, want %d", len(cases), 3*2*3*2*3)
	}
	for _, c := range cases {
		if c.Injection == nil || c.Injection.Scope != faultinject.ScopePrimaryUnit {
			t.Fatalf("case %s is not primary-unit scoped", c.ID)
		}
	}
}

// TestCompileMissingMissionsDeterministic: the missing-mission error
// must name every absent ID in sorted order, not an arbitrary one drawn
// from map iteration — resumable campaigns and CI logs match on it.
func TestCompileMissingMissionsDeterministic(t *testing.T) {
	s := Paper(1)
	s.Missions = []int{4, 99, 7, 98, 42}
	want := "spec: mission(s) 42, 98, 99 not in scenario"
	for i := 0; i < 50; i++ {
		_, err := s.Compile(nil)
		if err == nil {
			t.Fatal("compile succeeded with missing missions")
		}
		if err.Error() != want {
			t.Fatalf("iteration %d: error %q, want %q", i, err, want)
		}
	}
}
