package physics

import (
	"fmt"
	"math"

	"uavres/internal/mathx"
)

// Allocator solves the wrench-to-thrust allocation for a degraded airframe
// via a weighted, damped pseudo-inverse of the mixer's forward model:
//
//	A = W B' (B W B' + lambda I)^-1
//
// where B is the 4xN effectiveness matrix (thrust, roll, pitch, yaw rows),
// W = diag(weights) carries per-rotor health (0 condemns a rotor, values in
// (0, 1] derate it), and lambda is a small Tikhonov damping that keeps the
// solve well-posed when condemned rotors collapse the Gram matrix. The
// healthy mixer stays the fast path; an Allocator only replaces it after
// FDI condemns a rotor (fdcl-ftc's FDI-driven control allocation).
// wrenchDims is the control wrench dimensionality (total thrust plus the
// three body torques) — a property of rigid-body control, not of any
// rotor count.
const wrenchDims = 4

type Allocator struct {
	n    int
	tMax float64
	caps Rotors                         // per-rotor thrust ceiling (N); 0 when condemned
	rows [MaxRotors][wrenchDims]float64 // t[i] = rows[i] . [thrustN, tauX, tauY, tauZ]
}

// ReconfiguredAllocator builds the weighted allocation for the given
// per-rotor health weights. Weights must be in [0, 1]; at least four rotors
// (the controllable-wrench minimum) must keep a positive weight.
func (m Mixer) ReconfiguredAllocator(weights Rotors) (*Allocator, error) {
	a := &Allocator{n: m.n, tMax: m.tMax}
	healthy := 0
	for i := 0; i < m.n; i++ {
		w := weights[i]
		if w < 0 || w > 1 || math.IsNaN(w) {
			return nil, fmt.Errorf("physics: rotor %d weight %v outside [0, 1]", i, w)
		}
		if w > 0 {
			healthy++
			a.caps[i] = m.tMax
		}
	}
	if healthy < 4 {
		return nil, fmt.Errorf("physics: only %d healthy rotors, need at least 4 for full wrench control", healthy)
	}

	// B rows in wrench order: total thrust, roll, pitch, yaw.
	var b [4]Rotors
	for i := 0; i < m.n; i++ {
		b[0][i] = 1
		b[1][i] = m.rollK[i]
		b[2][i] = m.pitchK[i]
		b[3][i] = m.yawK[i]
	}

	// Gram matrix G = B W B', damped on the diagonal.
	var g [wrenchDims][wrenchDims]float64
	trace := 0.0
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			sum := 0.0
			for i := 0; i < m.n; i++ {
				sum += b[r][i] * weights[i] * b[c][i]
			}
			g[r][c] = sum
		}
		trace += g[r][r]
	}
	lambda := 1e-6*trace/4 + 1e-12
	for r := 0; r < 4; r++ {
		g[r][r] += lambda
	}

	inv, err := invert4(g)
	if err != nil {
		return nil, err
	}

	// rows[i][k] = w_i * sum_j B[j][i] * inv[j][k].
	for i := 0; i < m.n; i++ {
		for k := 0; k < 4; k++ {
			sum := 0.0
			for j := 0; j < 4; j++ {
				sum += b[j][i] * inv[j][k]
			}
			a.rows[i][k] = weights[i] * sum
		}
	}
	return a, nil
}

// invert4 inverts a 4x4 matrix by Gauss-Jordan with partial pivoting.
func invert4(g [wrenchDims][wrenchDims]float64) ([wrenchDims][wrenchDims]float64, error) {
	var inv [wrenchDims][wrenchDims]float64
	for i := range inv {
		inv[i][i] = 1
	}
	for col := 0; col < 4; col++ {
		pivot := col
		for r := col + 1; r < 4; r++ {
			if math.Abs(g[r][col]) > math.Abs(g[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(g[pivot][col]) < 1e-300 {
			return inv, fmt.Errorf("physics: singular allocation Gram matrix")
		}
		g[col], g[pivot] = g[pivot], g[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		p := g[col][col]
		for c := 0; c < 4; c++ {
			g[col][c] /= p
			inv[col][c] /= p
		}
		for r := 0; r < 4; r++ {
			if r == col {
				continue
			}
			f := g[r][col]
			if f == 0 { //lint:allow floatcmp exact-zero skip is an optimization; any nonzero factor eliminates
				continue
			}
			for c := 0; c < 4; c++ {
				g[r][c] -= f * g[col][c]
				inv[r][c] -= f * inv[col][c]
			}
		}
	}
	return inv, nil
}

// N returns the rotor count the allocator was built for.
func (a *Allocator) N() int { return a.n }

// Caps returns the per-rotor thrust ceilings; condemned rotors read 0.
func (a *Allocator) Caps() Rotors { return a.caps }

// Allocate distributes the desired wrench across the remaining healthy
// rotors and returns normalized commands in [0, 1]. Condemned rotors are
// hard-capped at zero regardless of the solve.
//
// Saturation clamps per rotor instead of uniform-shifting like the healthy
// Mixer: the shift trick only preserves the commanded torque when each
// allocation column sums to zero across the ACTIVE rotors, and condemning
// a rotor destroys that symmetry. On a one-out hexa the minimum-norm
// solution parks the condemned rotor's diametric partner near zero thrust,
// so adverse torque demands routinely go negative there — a uniform shift
// would then pump collective thrust into every survivor (runaway climb)
// while zeroing the correction; clamping sacrifices only the torque the
// dead rotor pair genuinely cannot produce.
func (a *Allocator) Allocate(thrustN float64, torque mathx.Vec3) Rotors {
	var cmd Rotors
	for i := 0; i < a.n; i++ {
		if a.caps[i] <= 0 {
			continue
		}
		r := &a.rows[i]
		t := r[0]*thrustN + r[1]*torque.X + r[2]*torque.Y + r[3]*torque.Z
		cmd[i] = mathx.Clamp(t/a.tMax, 0, 1)
	}
	return cmd
}
