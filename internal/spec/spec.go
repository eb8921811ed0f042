// Package spec defines the declarative, versioned campaign specification:
// the experiment plan as data. A CampaignSpec names the missions, the
// airframes, an injection matrix (targets x primitives x durations x
// start times), simulation-config overrides, named config variants, and
// case selectors; Compile turns it into the []core.Case the one execution
// engine (core.Runner) consumes. The paper's 850-case design is the
// canonical built-in spec (Paper), golden-tested to reproduce core.Plan's
// case IDs and seeds bit-for-bit. A start or duration sweep is a spec with
// several starts_sec or durations_sec, and a threshold or risk sweep is a
// spec with variants.
//
// Specs are plain JSON, so an experiment is reviewable, diffable, and
// hashable: Fingerprint digests one case plus the code-relevant sim
// config into the content hash that drives cached/resumable campaigns
// (core.ResultCache).
package spec

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/mission"
	"uavres/internal/physics"
)

// Version is the spec schema version this package compiles.
const Version = 1

// PaperStartSec is the paper's canonical injection start (T+90 s). Cases
// starting there keep the legacy ID format ("m04-gyro-freeze-10s"); any
// other start is suffixed ("-t30s") so IDs stay unique across grids.
const PaperStartSec = 90

// CampaignSpec is one declarative experiment plan.
type CampaignSpec struct {
	// Version must equal Version (1). Unknown versions are rejected so a
	// future schema change cannot silently recompile an old spec.
	Version int `json:"version"`
	// Name labels the spec in reports and bench metadata.
	Name string `json:"name,omitempty"`
	// Seed is the campaign base seed (0 means 1).
	Seed int64 `json:"seed,omitempty"`
	// Missions lists scenario mission IDs; empty means every mission.
	Missions []int `json:"missions,omitempty"`
	// Airframes lists the rotor layouts the whole matrix flies on, parsed
	// by physics.ParseAirframe ("quad-x", "hexa-x", "octo-x"); empty means
	// the default quad-x. Quad-x cases keep their legacy IDs and an empty
	// Case.Airframe (so pre-airframe fingerprints survive); other layouts
	// suffix every case ID ("-hexa", "-octo") and stamp Case.Airframe.
	// Every airframe shares the mission's environment seed: the redundancy
	// comparison varies the VEHICLE between cases, not the weather.
	Airframes []string `json:"airframes,omitempty"`
	// Gold controls the one fault-free reference run per mission.
	// Omitted (null) means true, matching the paper.
	Gold *bool `json:"gold,omitempty"`
	// Matrix is the injection grid; its zero value is the paper's.
	Matrix Matrix `json:"matrix"`
	// Overrides adjusts the simulation config for every case.
	Overrides core.Overrides `json:"overrides,omitempty"`
	// Variants flies the whole matrix once per named variant, its
	// overrides on top of Overrides. Empty means one unnamed variant: case
	// IDs and fingerprints as without the axis. A named variant suffixes
	// every case ID ("-thr30") and stamps Case.Variant. Every variant
	// shares the missions' environment and injection seeds, so variants
	// differ in configuration only.
	Variants []core.Variant `json:"variants,omitempty"`
	// Select keeps only matching cases (OR across selectors; empty
	// keeps everything).
	Select []Selector `json:"select,omitempty"`
}

// Matrix is the injection grid: the cartesian product of targets,
// primitives, durations, and start times, applied to every mission.
// Empty axes default to the paper's values.
type Matrix struct {
	// Targets are parsed by faultinject.ParseTarget ("acc", "gyro",
	// "imu"); empty means all three.
	Targets []string `json:"targets,omitempty"`
	// Primitives are parsed by faultinject.ParsePrimitive ("zeros",
	// "freeze", ...); empty means all seven.
	Primitives []string `json:"primitives,omitempty"`
	// DurationsSec defaults to the paper's {2, 5, 10, 30}.
	DurationsSec []float64 `json:"durations_sec,omitempty"`
	// StartsSec defaults to {PaperStartSec}.
	StartsSec []float64 `json:"starts_sec,omitempty"`
	// Scope is parsed by faultinject.ParseScope; empty means all-units,
	// the paper's assumption.
	Scope string `json:"scope,omitempty"`
	// Actuators lists actuator fault primitives ("loe", "stuck", "float")
	// expanded per rotor alongside the sensor grid; empty means no
	// actuator cases. Actuator injections always use all-units scope (a
	// rotor fault has no per-IMU addressing) and share the durations and
	// starts axes.
	Actuators []string `json:"actuators,omitempty"`
	// ActuatorRotors lists the rotor indices actuator faults target;
	// empty means {0}. Every index must exist on every listed airframe.
	ActuatorRotors []int `json:"actuator_rotors,omitempty"`
	// LoEFactor is the thrust multiplier "loe" cases apply to the faulted
	// rotor; 0 means faultinject.DefaultLoEFactor.
	LoEFactor float64 `json:"loe_factor,omitempty"`
}

// Paper returns the canonical built-in spec: the paper's 850-case design
// (21 injection types x 10 missions x 4 durations at T+90 s, plus one
// gold run per mission). Compile(Paper(seed), mission.Valencia()) is
// golden-tested to equal core.Plan(mission.Valencia(), seed).
func Paper(seed int64) CampaignSpec {
	return CampaignSpec{Version: Version, Name: "paper-850", Seed: seed}
}

// Load reads and validates a spec from a JSON file. Unknown fields are
// rejected: a typoed knob must fail loudly, not silently fall back to a
// default.
func Load(path string) (CampaignSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return CampaignSpec{}, fmt.Errorf("spec: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates a spec from JSON bytes.
func Parse(data []byte) (CampaignSpec, error) {
	var s CampaignSpec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return CampaignSpec{}, fmt.Errorf("spec: parsing: %w", err)
	}
	if err := s.Validate(); err != nil {
		return CampaignSpec{}, err
	}
	return s, nil
}

// Validate checks the spec without compiling it against a scenario.
func (s CampaignSpec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("spec: unsupported version %d (this build compiles version %d)", s.Version, Version)
	}
	if _, err := s.Matrix.parse(); err != nil {
		return err
	}
	if _, err := parseAirframes(s.Airframes); err != nil {
		return err
	}
	if err := s.Overrides.Validate(); err != nil {
		return fmt.Errorf("spec: overrides: %w", err)
	}
	names := make(map[string]bool, len(s.Variants))
	for i, v := range s.Variants {
		if !validVariantName(v.Name) {
			return fmt.Errorf("spec: variant %d: name %q is not a lowercase slug ([a-z0-9][a-z0-9._-]*)", i, v.Name)
		}
		if names[v.Name] {
			return fmt.Errorf("spec: duplicate variant %q", v.Name)
		}
		names[v.Name] = true
		if err := v.Overrides.Validate(); err != nil {
			return fmt.Errorf("spec: variant %s: %w", v.Name, err)
		}
	}
	for i, sel := range s.Select {
		if err := sel.Validate(); err != nil {
			return fmt.Errorf("spec: selector %d: %w", i, err)
		}
	}
	return nil
}

// validVariantName reports whether a variant name is a lowercase slug
// ([a-z0-9][a-z0-9._-]*): it suffixes case IDs and black-box file names.
func validVariantName(name string) bool {
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
		case i > 0 && (r == '.' || r == '_' || r == '-'):
		default:
			return false
		}
	}
	return name != ""
}

// parsedMatrix is the matrix with every axis resolved to values.
type parsedMatrix struct {
	targets    []faultinject.Target
	primitives []faultinject.Primitive
	durations  []time.Duration
	starts     []time.Duration
	scope      faultinject.Scope
	actuators  []faultinject.Primitive
	rotors     []int
	loe        float64
}

func (m Matrix) parse() (parsedMatrix, error) {
	var p parsedMatrix
	var err error
	if p.targets, err = parseAxis(m.Targets, faultinject.Targets(), func(s string) (faultinject.Target, error) {
		t, err := faultinject.ParseTarget(s)
		if err == nil && t == faultinject.TargetRotor {
			err = fmt.Errorf("target %q is the actuator side; list rotor faults under the actuators axis instead", s)
		}
		return t, err
	}); err != nil {
		return p, err
	}
	if p.primitives, err = parseAxis(m.Primitives, faultinject.Primitives(), func(s string) (faultinject.Primitive, error) {
		pr, err := faultinject.ParsePrimitive(s)
		if err == nil && pr.Actuator() {
			err = fmt.Errorf("primitive %q is an actuator fault; list it under the actuators axis instead", s)
		}
		return pr, err
	}); err != nil {
		return p, err
	}
	if p.actuators, err = parseAxis(m.Actuators, nil, func(s string) (faultinject.Primitive, error) {
		pr, err := faultinject.ParsePrimitive(s)
		if err == nil && !pr.Actuator() {
			err = fmt.Errorf("actuator %q is a sensor fault; list it under the primitives axis instead", s)
		}
		return pr, err
	}); err != nil {
		return p, err
	}
	if len(p.actuators) > 0 {
		p.rotors = m.ActuatorRotors
		if len(p.rotors) == 0 {
			p.rotors = []int{0}
		}
		for _, r := range p.rotors {
			if r < 0 || r >= physics.MaxRotors {
				return p, fmt.Errorf("spec: actuator rotor %d out of range [0, %d)", r, physics.MaxRotors)
			}
		}
	} else if len(m.ActuatorRotors) > 0 {
		return p, fmt.Errorf("spec: actuator_rotors set but the actuators axis is empty")
	}
	// 0 means "use the faultinject default" and skips the range check.
	if m.LoEFactor < 0 || m.LoEFactor >= 1 {
		return p, fmt.Errorf("spec: loe_factor %v outside (0, 1)", m.LoEFactor)
	}
	p.loe = m.LoEFactor
	if p.durations, err = parseAxis(m.DurationsSec, core.Durations(), durationSec); err != nil {
		return p, err
	}
	if p.starts, err = parseAxis(m.StartsSec, []time.Duration{PaperStartSec * time.Second}, startSec); err != nil {
		return p, err
	}
	if p.scope, err = faultinject.ParseScope(m.Scope); err != nil {
		return p, fmt.Errorf("spec: %w", err)
	}
	return p, nil
}

// parseAxis parses each value of a matrix axis, or returns def for an
// empty axis.
func parseAxis[V, T any](values []V, def []T, parse func(V) (T, error)) ([]T, error) {
	if len(values) == 0 {
		return def, nil
	}
	out := make([]T, 0, len(values))
	for _, v := range values {
		t, err := parse(v)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		out = append(out, t)
	}
	return out, nil
}

// Compile expands the spec against a scenario into executable cases, in
// deterministic order: missions in scenario order, then variants, then
// airframes, each with gold first, then targets x primitives x durations
// x starts, then actuator primitives x rotors x durations x starts. The
// select list is applied during the expansion: each level (mission,
// airframe, target or actuator primitive, primitive, window) keeps only
// the selectors its value passes, a subtree no selector reaches is
// skipped, and a case is built only for a cell that some selector keeps,
// so set-up costs what is selected, not what the matrix enumerates.
// Compiled cases carry no fingerprint yet — the hash depends on the final
// effective sim config, so AttachFingerprints runs after every override
// source (spec and CLI) has been folded in.
func (s CampaignSpec) Compile(scenario []mission.Mission) ([]core.Case, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m, err := s.Matrix.parse()
	if err != nil {
		return nil, err
	}
	if scenario == nil {
		scenario = mission.Valencia()
	}
	missions, err := selectMissions(scenario, s.Missions)
	if err != nil {
		return nil, err
	}
	base := s.Seed
	if base == 0 {
		base = 1
	}
	gold := s.Gold == nil || *s.Gold

	frames, err := parseAirframes(s.Airframes)
	if err != nil {
		return nil, err
	}
	// One nil variant when the axis is absent: the runner's config as is.
	variants := []*core.Variant{nil}
	if len(s.Variants) > 0 {
		variants = make([]*core.Variant, len(s.Variants))
		for i := range s.Variants {
			v := s.Variants[i]
			variants[i] = &v
		}
	}

	var cases []core.Case
	compiled := compileSelectors(s.Select)
	if len(s.Select) == 0 {
		// No select list keeps every cell: one matcher with no field set.
		compiled = []matcher{{}}
		perFrame := (len(m.targets)*len(m.primitives) + len(m.actuators)*len(m.rotors)) *
			len(m.durations) * len(m.starts)
		cases = make([]core.Case, 0, len(missions)*len(variants)*len(frames)*(perFrame+1))
	}
	all := make([]*matcher, len(compiled))
	for i := range compiled {
		all[i] = &compiled[i]
	}
	// The live selectors at each expansion level, in storage reused across
	// iterations.
	byMission := make([]*matcher, 0, len(all))
	byFrame := make([]*matcher, 0, len(all))
	byTarget := make([]*matcher, 0, len(all))
	byPrim := make([]*matcher, 0, len(all))
	for _, ms := range missions {
		byMission = narrow(byMission, all, func(sel *matcher) bool { return sel.missionOK(ms.ID) })
		// Every airframe and variant of one mission shares the environment
		// seed: those comparisons vary the vehicle or its config, not the
		// weather.
		envSeed := core.CaseSeed(base, ms.ID, 0, 0, 0)
		for _, variant := range variants {
			for _, frame := range frames {
				// Checked before any selector prunes: a rotor the airframe
				// lacks is a spec error whether or not its cells are kept.
				for _, rotor := range m.rotors {
					if rotor >= frame.Rotors() {
						return nil, fmt.Errorf("spec: actuator rotor %d does not exist on %s (%d rotors)",
							rotor, frame, frame.Rotors())
					}
				}
				byFrame = narrow(byFrame, byMission, func(sel *matcher) bool { return sel.frameOK(frame) })
				if len(byFrame) == 0 {
					continue
				}
				suffix, airframe := "", ""
				if frame != physics.QuadX {
					suffix = "-" + frame.Slug()
					airframe = frame.String()
				}
				if variant != nil {
					suffix += "-" + variant.Name
				}
				cell := core.Case{MissionID: ms.ID, Seed: envSeed, Airframe: airframe, Variant: variant}
				add := func(id string, inj *faultinject.Injection) {
					c := cell
					c.ID, c.Injection = id, inj
					cases = append(cases, c)
				}
				if gold {
					id, ok := pick(byFrame, (*matcher).goldOK, func() string {
						return fmt.Sprintf("m%02d-gold%s", ms.ID, suffix)
					})
					if ok {
						add(id, nil)
					}
				}
				for _, target := range m.targets {
					byTarget = narrow(byTarget, byFrame, func(sel *matcher) bool { return sel.targetOK(target) })
					if len(byTarget) == 0 {
						continue
					}
					for _, prim := range m.primitives {
						byPrim = narrow(byPrim, byTarget, func(sel *matcher) bool { return sel.faultOK(target, prim) })
						if len(byPrim) == 0 {
							continue
						}
						for _, dur := range m.durations {
							for _, start := range m.starts {
								id, ok := pick(byPrim, func(sel *matcher) bool { return sel.windowOK(dur, start) }, func() string {
									return CaseID(ms.ID, target, prim, dur, start) + suffix
								})
								if !ok {
									continue
								}
								inj := &faultinject.Injection{
									Primitive: prim,
									Target:    target,
									Start:     start,
									Duration:  dur,
									Scope:     m.scope,
									Seed:      injSeed(base, ms.ID, target, prim, dur, start),
								}
								add(id, inj)
							}
						}
					}
				}
				for _, prim := range m.actuators {
					// Selectors have no rotor field, so the rotor level prunes
					// nothing.
					byPrim = narrow(byPrim, byFrame, func(sel *matcher) bool { return sel.faultOK(faultinject.TargetRotor, prim) })
					if len(byPrim) == 0 {
						continue
					}
					for _, rotor := range m.rotors {
						for _, dur := range m.durations {
							for _, start := range m.starts {
								id, ok := pick(byPrim, func(sel *matcher) bool { return sel.windowOK(dur, start) }, func() string {
									return actuatorCaseID(ms.ID, rotor, prim, dur, start) + suffix
								})
								if !ok {
									continue
								}
								inj := &faultinject.Injection{
									Primitive: prim,
									Target:    faultinject.TargetRotor,
									Rotor:     rotor,
									Start:     start,
									Duration:  dur,
									// Rotor faults have no per-IMU addressing.
									Scope: faultinject.ScopeAllUnits,
									Seed:  actuatorSeed(base, ms.ID, prim, rotor, dur, start),
								}
								if prim == faultinject.LossOfEffectiveness {
									inj.Factor = m.loe
								}
								add(id, inj)
							}
						}
					}
				}
			}
		}
	}
	if err := checkUniqueIDs(cases); err != nil {
		return nil, err
	}
	return cases, nil
}

// selectMissions resolves the spec's mission IDs against the scenario,
// preserving scenario order; empty means every mission.
func selectMissions(scenario []mission.Mission, ids []int) ([]mission.Mission, error) {
	if len(ids) == 0 {
		return scenario, nil
	}
	want := make(map[int]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	out := make([]mission.Mission, 0, len(ids))
	for _, m := range scenario {
		if want[m.ID] {
			out = append(out, m)
			delete(want, m.ID)
		}
	}
	if len(want) > 0 {
		// Report every missing ID, sorted: ranging the map directly would
		// name an arbitrary one, making the error (and any test or log
		// matching on it) differ from run to run.
		missing := make([]int, 0, len(want))
		for id := range want {
			missing = append(missing, id)
		}
		sort.Ints(missing)
		parts := make([]string, len(missing))
		for i, id := range missing {
			parts[i] = strconv.Itoa(id)
		}
		return nil, fmt.Errorf("spec: mission(s) %s not in scenario", strings.Join(parts, ", "))
	}
	return out, nil
}

// parseAirframes resolves the spec's airframe axis; empty means quad-x.
func parseAirframes(names []string) ([]physics.Airframe, error) {
	if len(names) == 0 {
		return []physics.Airframe{physics.QuadX}, nil
	}
	out := make([]physics.Airframe, 0, len(names))
	for _, s := range names {
		f, err := physics.ParseAirframe(s)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		out = append(out, f)
	}
	return out, nil
}

// CaseID builds the stable case identifier of a sensor fault case. At
// the paper's canonical start the format is the legacy one
// ("m04-gyro-freeze-10s"); other starts append "-tNNs" so grid specs
// stay collision-free. cmd/uavsim names its single flight with it too.
func CaseID(missionID int, target faultinject.Target, prim faultinject.Primitive, dur, start time.Duration) string {
	id := fmt.Sprintf("m%02d-%s-%s-%ss", missionID,
		core.Slug(target.String()), core.Slug(prim.String()), formatSec(dur.Seconds()))
	if start != PaperStartSec*time.Second {
		id += "-t" + formatSec(start.Seconds()) + "s"
	}
	return id
}

// actuatorCaseID names an actuator case by rotor and primitive
// ("m04-r0-loe-10s"); off-canonical starts get the same "-tNNs" suffix
// as sensor cases.
func actuatorCaseID(missionID, rotor int, prim faultinject.Primitive, dur, start time.Duration) string {
	id := fmt.Sprintf("m%02d-r%d-%s-%ss", missionID,
		rotor, core.Slug(prim.String()), formatSec(dur.Seconds()))
	if start != PaperStartSec*time.Second {
		id += "-t" + formatSec(start.Seconds()) + "s"
	}
	return id
}

// formatSec renders seconds compactly and uniquely: integers without a
// decimal point (matching the legacy "%d" IDs), fractions as shortest
// round-trip decimals.
func formatSec(v float64) string {
	//lint:allow floatcmp exact integrality test on a spec-authored literal, not a computed value
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// secToDuration converts spec-authored seconds to a time.Duration. A
// value the conversion cannot represent (NaN, or beyond about 292 years
// either way) is an error, not a wrapped-around duration.
func secToDuration(v float64) (time.Duration, error) {
	ns := v * float64(time.Second)
	// float64(math.MaxInt64) rounds up to 2^63, hence the strict bound.
	if !(ns >= math.MinInt64 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("%v s is outside time.Duration's range", v)
	}
	return time.Duration(ns), nil
}

// durationSec converts an injection duration. The converted value is
// checked, not the float, so seconds that round to 0 ns are rejected.
func durationSec(v float64) (time.Duration, error) {
	d, err := secToDuration(v)
	if err != nil {
		return 0, fmt.Errorf("injection duration: %w", err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("non-positive injection duration %v s", v)
	}
	return d, nil
}

// startSec converts an injection start, which must not be negative.
func startSec(v float64) (time.Duration, error) {
	st, err := secToDuration(v)
	if err != nil {
		return 0, fmt.Errorf("injection start: %w", err)
	}
	if st < 0 {
		return 0, fmt.Errorf("negative injection start %v s", v)
	}
	return st, nil
}

func checkUniqueIDs(cases []core.Case) error {
	seen := make(map[string]bool, len(cases))
	for _, c := range cases {
		if seen[c.ID] {
			return fmt.Errorf("spec: duplicate case ID %q (matrix axes collide)", c.ID)
		}
		seen[c.ID] = true
	}
	return nil
}

// injSeed derives one case's injection seed with core.CaseSeed. It
// reproduces the legacy plan exactly at the paper's grid (integer
// durations, T+90 s start) and folds the float bits of off-grid
// durations/starts into the mix so every grid cell keeps an independent
// fault stream. Every case of a mission shares one environment seed,
// core.CaseSeed(base, mission, 0, 0, 0), so the runner can fork a shared
// pre-injection prefix.
func injSeed(base int64, missionID int, target faultinject.Target, prim faultinject.Primitive, dur, start time.Duration) int64 {
	durSec := dur.Seconds()
	seed := core.CaseSeed(base+1, missionID, int(target), int(prim), int(durSec))
	//lint:allow floatcmp exact integrality test gates seed folding; must be bit-stable, not approximate
	if durSec != math.Trunc(durSec) {
		seed = foldSeed(seed, math.Float64bits(durSec))
	}
	if start != PaperStartSec*time.Second {
		seed = foldSeed(seed, math.Float64bits(start.Seconds()))
	}
	return seed
}

// actuatorSeed derives an actuator case's injection seed the same way
// injSeed does (TargetRotor stands in for the sensor target), folding a
// nonzero rotor index so every rotor keeps an independent fault stream.
func actuatorSeed(base int64, missionID int, prim faultinject.Primitive, rotor int, dur, start time.Duration) int64 {
	seed := injSeed(base, missionID, faultinject.TargetRotor, prim, dur, start)
	if rotor != 0 {
		seed = foldSeed(seed, uint64(rotor))
	}
	return seed
}

// foldSeed mixes extra entropy into a seed (splitmix64 finalizer),
// keeping the result positive like core.CaseSeed.
func foldSeed(seed int64, bits uint64) int64 {
	x := uint64(seed) ^ bits*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}
