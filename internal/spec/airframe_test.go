package spec

import (
	"strings"
	"testing"
	"time"

	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/physics"
	"uavres/internal/sim"
)

// TestPinnedFingerprints pins exact fingerprint values captured before the
// airframe refactor landed. These are the contract with every stored
// result: a legacy case (no Airframe, no actuator fields) must keep
// hashing to the same digest forever, or resume and the content-addressed
// store silently orphan their history. If this test fails, the fix is
// NEVER to update the constants — it is to make the new field optional in
// the digest again.
func TestPinnedFingerprints(t *testing.T) {
	cfg := sim.DefaultConfig()
	cases, err := Paper(1).Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]core.Case{}
	for _, c := range cases {
		byID[c.ID] = c
	}

	pinned := []struct {
		id   string
		hash string
	}{
		{"m01-gold", "4759303dee863c5e"},
		{"m01-gyro-freeze-10s", "dc60412d2c285d2e"},
		{"m04-acc-zeros-2s", "2127d5c726619e2d"},
	}
	for _, p := range pinned {
		c, ok := byID[p.id]
		if !ok {
			t.Fatalf("case %s missing from Paper(1)", p.id)
		}
		if got := Fingerprint(c, cfg); got != p.hash {
			t.Errorf("%s fingerprint = %s, want pinned %s", p.id, got, p.hash)
		}
	}
	if got := byID["m01-gold"].Seed; got != 8693678978585383319 {
		t.Errorf("m01 environment seed = %d, want pinned 8693678978585383319", got)
	}
	if got := byID["m04-acc-zeros-2s"].Seed; got != 5651673829277496530 {
		t.Errorf("m04 environment seed = %d, want pinned 5651673829277496530", got)
	}

	// A scoped hand-built case, exercising the scope/unit digest path.
	scoped := core.Case{
		ID: "x-scoped", MissionID: 2, Seed: 7,
		Injection: &faultinject.Injection{
			Primitive: faultinject.Noise, Target: faultinject.TargetGyro,
			Start: 90 * time.Second, Duration: 5 * time.Second,
			Scope: faultinject.ScopePrimaryUnit, Seed: 42,
		},
	}
	if got := Fingerprint(scoped, cfg); got != "5d48bb2311489b35" {
		t.Errorf("scoped fingerprint = %s, want pinned 5d48bb2311489b35", got)
	}

	// The spec hash names a plan in bench metadata and results headers;
	// nothing keys a stored result on it, so unlike the fingerprints above
	// it may be re-pinned when the spec schema changes.
	if got := Paper(1).Hash(); got != "0ee0c6139aa674bf" {
		t.Errorf("Paper(1) spec hash = %s, want pinned 0ee0c6139aa674bf", got)
	}
}

func airframeSpec(frames ...string) CampaignSpec {
	return CampaignSpec{
		Version:   1,
		Airframes: frames,
		Matrix: Matrix{
			Targets:      []string{"gyro"},
			Primitives:   []string{"freeze"},
			DurationsSec: []float64{10},
		},
		Missions: []int{1},
	}
}

// TestCompileAirframeAxis: the airframes axis multiplies the grid with
// suffixed IDs, a shared per-mission environment seed, and — critically —
// an empty Airframe field for quad-x so pre-axis plans keep their
// fingerprints.
func TestCompileAirframeAxis(t *testing.T) {
	s := airframeSpec("quad-x", "hexa-x", "octo-x")
	cases, err := s.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{
		"m01-gold", "m01-gyro-freeze-10s",
		"m01-gold-hexa", "m01-gyro-freeze-10s-hexa",
		"m01-gold-octo", "m01-gyro-freeze-10s-octo",
	}
	if len(cases) != len(wantIDs) {
		t.Fatalf("compiled %d cases, want %d", len(cases), len(wantIDs))
	}
	wantFrames := []string{"", "", "hexa-x", "hexa-x", "octo-x", "octo-x"}
	for i, c := range cases {
		if c.ID != wantIDs[i] {
			t.Errorf("case %d ID = %q, want %q", i, c.ID, wantIDs[i])
		}
		if c.Airframe != wantFrames[i] {
			t.Errorf("case %s Airframe = %q, want %q", c.ID, c.Airframe, wantFrames[i])
		}
		// Environment and injection seeds are airframe-invariant: the
		// redundancy comparison varies the vehicle, not the weather.
		if c.Seed != cases[0].Seed {
			t.Errorf("case %s environment seed %d != quad's %d", c.ID, c.Seed, cases[0].Seed)
		}
		if c.Injection != nil && c.Injection.Seed != cases[1].Injection.Seed {
			t.Errorf("case %s injection seed differs from quad's", c.ID)
		}
	}

	// Default (no axis) must compile identically to an explicit quad-x.
	defCases, err := airframeSpec().Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	quadOnly, err := airframeSpec("quad-x").Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(defCases) != 2 || len(quadOnly) != 2 {
		t.Fatalf("quad-only compile sizes %d, %d, want 2", len(defCases), len(quadOnly))
	}
	for i := range defCases {
		if defCases[i].ID != quadOnly[i].ID || defCases[i].Airframe != "" || quadOnly[i].Airframe != "" {
			t.Errorf("quad default mismatch at %d: %+v vs %+v", i, defCases[i], quadOnly[i])
		}
	}

	if _, err := airframeSpec("tri-y").Compile(nil); err == nil {
		t.Error("unknown airframe accepted")
	}
}

// TestCompileActuatorAxis: the actuators axis compiles rotor-fault cases
// with their own ID scheme, all-units scope, and the LoE factor applied
// only to loss-of-effectiveness injections.
func TestCompileActuatorAxis(t *testing.T) {
	s := airframeSpec("hexa-x")
	s.Gold = boolp(false)
	s.Matrix.Actuators = []string{"loe", "stuck", "float"}
	s.Matrix.ActuatorRotors = []int{0, 2}
	s.Matrix.LoEFactor = 0.3
	cases, err := s.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 1 sensor combo + 3 actuators x 2 rotors.
	if len(cases) != 7 {
		t.Fatalf("compiled %d cases, want 7", len(cases))
	}
	seeds := map[int64]bool{cases[0].Injection.Seed: true}
	for _, c := range cases[1:] {
		in := c.Injection
		if in.Target != faultinject.TargetRotor {
			t.Errorf("%s target = %v, want rotor", c.ID, in.Target)
		}
		if in.Scope != faultinject.ScopeAllUnits {
			t.Errorf("%s scope = %v, want all units", c.ID, in.Scope)
		}
		if in.Primitive == faultinject.LossOfEffectiveness {
			if in.Factor != 0.3 {
				t.Errorf("%s LoE factor = %v, want 0.3", c.ID, in.Factor)
			}
		} else if in.Factor != 0 {
			t.Errorf("%s non-LoE factor = %v, want 0", c.ID, in.Factor)
		}
		if err := in.Validate(); err != nil {
			t.Errorf("%s compiled an invalid injection: %v", c.ID, err)
		}
		if seeds[in.Seed] {
			t.Errorf("%s reuses an injection seed", c.ID)
		}
		seeds[in.Seed] = true
	}
	if got, want := cases[1].ID, "m01-r0-loe-10s-hexa"; got != want {
		t.Errorf("first actuator ID = %q, want %q", got, want)
	}
	if got, want := cases[2].ID, "m01-r2-loe-10s-hexa"; got != want {
		t.Errorf("second actuator ID = %q, want %q", got, want)
	}

	// A rotor index beyond the frame's rotor count is a compile error.
	s.Matrix.ActuatorRotors = []int{7}
	if _, err := s.Compile(nil); err == nil ||
		!strings.Contains(err.Error(), "does not exist on hexa-x") {
		t.Errorf("rotor 7 on hexa accepted (err %v)", err)
	}
}

// TestActuatorMatrixValidation: axis misuse fails at parse/validate time
// with an error naming the right axis.
func TestActuatorMatrixValidation(t *testing.T) {
	mutate := []struct {
		name string
		f    func(*CampaignSpec)
	}{
		{"rotor_in_targets", func(s *CampaignSpec) { s.Matrix.Targets = []string{"rotor"} }},
		{"actuator_in_primitives", func(s *CampaignSpec) { s.Matrix.Primitives = []string{"loe"} }},
		{"sensor_in_actuators", func(s *CampaignSpec) { s.Matrix.Actuators = []string{"freeze"} }},
		{"rotor_out_of_range", func(s *CampaignSpec) {
			s.Matrix.Actuators = []string{"loe"}
			s.Matrix.ActuatorRotors = []int{physics.MaxRotors}
		}},
		{"rotors_without_actuators", func(s *CampaignSpec) { s.Matrix.ActuatorRotors = []int{0} }},
		{"loe_factor_too_high", func(s *CampaignSpec) {
			s.Matrix.Actuators = []string{"loe"}
			s.Matrix.LoEFactor = 1.0
		}},
		{"loe_factor_negative", func(s *CampaignSpec) {
			s.Matrix.Actuators = []string{"loe"}
			s.Matrix.LoEFactor = -0.5
		}},
	}
	for _, tt := range mutate {
		t.Run(tt.name, func(t *testing.T) {
			s := airframeSpec()
			tt.f(&s)
			if _, err := s.Compile(nil); err == nil {
				t.Error("invalid matrix accepted")
			}
		})
	}
}

// TestSelectorAirframe: the airframe selector key matches compiled cases,
// treating an empty Case.Airframe as quad-x.
func TestSelectorAirframe(t *testing.T) {
	sel, err := ParseSelector("airframe=hexa-x")
	if err != nil {
		t.Fatal(err)
	}
	s := airframeSpec("quad-x", "hexa-x")
	s.Select = []Selector{sel}
	cases, err := s.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 2 {
		t.Fatalf("selector kept %d cases, want 2", len(cases))
	}
	for _, c := range cases {
		if !strings.HasSuffix(c.ID, "-hexa") {
			t.Errorf("selector kept non-hexa case %s", c.ID)
		}
	}

	quadSel, err := ParseSelector("frame=quad-x")
	if err != nil {
		t.Fatal(err)
	}
	if !quadSel.Matches(core.Case{ID: "m01-gold", MissionID: 1}) {
		t.Error("quad selector rejects a legacy empty-Airframe case")
	}
	if quadSel.Matches(core.Case{ID: "m01-gold-hexa", MissionID: 1, Airframe: "hexa-x"}) {
		t.Error("quad selector accepts a hexa case")
	}

	if _, err := ParseSelector("airframe=warp-core"); err == nil {
		t.Error("unknown airframe selector accepted")
	}
}
