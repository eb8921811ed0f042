package physics

import (
	"fmt"
	"math"
	"strings"
)

// Airframe selects a multirotor rotor layout. The zero value is the X-quad
// the paper flies, so configurations that never mention an airframe keep
// their exact legacy meaning — and their spec fingerprints.
type Airframe int

const (
	// QuadX is the PX4-style X quadrotor (rotor order FR, BL, FL, BR;
	// rotors 0/1 spin one way, 2/3 the other).
	QuadX Airframe = iota
	// HexaX is a symmetric X hexarotor: rotors every 60 deg starting at
	// 30 deg from the nose, adjacent rotors spinning opposite ways.
	HexaX
	// OctoX is a symmetric X octorotor: rotors every 45 deg starting at
	// 22.5 deg from the nose, adjacent rotors spinning opposite ways.
	OctoX
)

// MaxRotors is the widest supported airframe. Per-rotor state uses
// fixed-size vectors of this width so vehicle state stays one value that
// a checkpoint copies whole.
const MaxRotors = 8

// Rotors is a per-rotor value vector sized for the widest airframe. Slots
// at or beyond the active airframe's rotor count are zero and stay zero.
type Rotors [MaxRotors]float64

// Airframes lists every supported airframe in declaration order.
func Airframes() []Airframe { return []Airframe{QuadX, HexaX, OctoX} }

// Valid reports whether a is a known airframe.
func (a Airframe) Valid() bool { return a >= QuadX && a <= OctoX }

// String returns the canonical label.
func (a Airframe) String() string {
	switch a {
	case QuadX:
		return "quad-x"
	case HexaX:
		return "hexa-x"
	case OctoX:
		return "octo-x"
	}
	return fmt.Sprintf("Airframe(%d)", int(a))
}

// Slug returns the short form used in case IDs.
func (a Airframe) Slug() string {
	switch a {
	case QuadX:
		return "quad"
	case HexaX:
		return "hexa"
	case OctoX:
		return "octo"
	}
	return fmt.Sprintf("airframe%d", int(a))
}

// Rotors returns the rotor count of the airframe.
func (a Airframe) Rotors() int {
	switch a {
	case HexaX:
		return 6
	case OctoX:
		return 8
	}
	return 4
}

// ParseAirframe maps a case-insensitive label to an Airframe. Both the
// canonical form ("hexa-x") and the short slug ("hexa") are accepted.
func ParseAirframe(s string) (Airframe, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "quad-x", "quad", "quadx":
		return QuadX, nil
	case "hexa-x", "hexa", "hexax", "hex":
		return HexaX, nil
	case "octo-x", "octo", "octox", "oct":
		return OctoX, nil
	}
	valid := make([]string, 0, len(Airframes()))
	for _, a := range Airframes() {
		valid = append(valid, a.String())
	}
	return 0, fmt.Errorf("physics: unknown airframe %q (valid: %s)", s, strings.Join(valid, ", "))
}

// Descriptor is the concrete rotor geometry of an airframe for a given set
// of physical parameters: dimensionless rotor directions on the body XY
// plane, spin signs, the arm scale turning directions into positions, and
// the per-rotor thrust ceiling. The mixer, the reconfiguring allocator,
// and the fault injector all consume the airframe through this one type.
type Descriptor struct {
	Frame Airframe
	N     int // rotor count
	// CosX/CosY are the dimensionless rotor directions in the FRD body
	// frame (X forward, Y right). For QuadX they are the legacy +-1 axis
	// signs (scaled by the diagonal arm projection); for HexaX/OctoX they
	// are unit-circle cosines (scaled by the full arm length).
	CosX, CosY Rotors
	// Dir is the sign of each rotor's yaw reaction torque.
	Dir Rotors
	// ScaleM converts (CosX, CosY) into body-frame rotor positions (m).
	ScaleM float64
	// MaxThrustN is the thrust one rotor produces at full command.
	MaxThrustN float64
}

// Descriptor instantiates the geometry for parameters p.
func (a Airframe) Descriptor(p Params) Descriptor {
	d := Descriptor{Frame: a, N: a.Rotors(), MaxThrustN: p.MaxThrustPerRotorN}
	switch a {
	case HexaX:
		// Rotors every 60 deg starting 30 deg off the nose, alternating
		// spin. The half-integer sines keep the allocation divisors exact.
		h := math.Sqrt(3) / 2
		d.CosX = Rotors{h, 0, -h, -h, 0, h}
		d.CosY = Rotors{0.5, 1, 0.5, -0.5, -1, -0.5}
		d.Dir = Rotors{-1, +1, -1, +1, -1, +1}
		d.ScaleM = p.ArmLengthM
	case OctoX:
		// Rotors every 45 deg starting 22.5 deg off the nose, alternating
		// spin. The +-c/+-s sign pattern cancels cross terms pairwise.
		c, s := math.Cos(math.Pi/8), math.Sin(math.Pi/8)
		d.CosX = Rotors{c, s, -s, -c, -c, -s, s, c}
		d.CosY = Rotors{s, c, c, s, -s, -c, -c, -s}
		d.Dir = Rotors{-1, +1, -1, +1, -1, +1, -1, +1}
		d.ScaleM = p.ArmLengthM
	default:
		// Legacy X-quad table: position signs scaled by the per-axis arm
		// projection ArmLengthM/sqrt(2), PX4 rotor order FR, BL, FL, BR.
		d.CosX = Rotors{+1, -1, +1, -1}
		d.CosY = Rotors{+1, -1, -1, +1}
		d.Dir = Rotors{-1, -1, +1, +1}
		d.ScaleM = p.ArmLengthM / math.Sqrt2
	}
	return d
}

// PosX returns rotor i's body-frame X position in meters.
func (d Descriptor) PosX(i int) float64 { return d.CosX[i] * d.ScaleM }

// PosY returns rotor i's body-frame Y position in meters.
func (d Descriptor) PosY(i int) float64 { return d.CosY[i] * d.ScaleM }

// Opposite returns the index of the rotor diametrically opposite rotor i —
// the partner the reconfiguring allocator derates to rebalance yaw when
// rotor i is condemned (fmdtools' opposite-rotor reconfiguration map).
func (a Airframe) Opposite(i int) int {
	switch a {
	case HexaX:
		return (i + 3) % 6
	case OctoX:
		return (i + 4) % 8
	}
	// Quad order FR, BL, FL, BR: diagonal partners are (0,1) and (2,3).
	return [4]int{1, 0, 3, 2}[i]
}
