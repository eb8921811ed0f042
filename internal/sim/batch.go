package sim

import (
	"fmt"

	"uavres/internal/ekf"
	"uavres/internal/faultinject"
	"uavres/internal/physics"
)

// Batch steps every fork of one checkpoint in lockstep: one donor vehicle
// advances the shared environment streams (sensor noise, wind gust) and
// each fork composes those deviates with its own diverged truth via
// stepEnv. Environment noise is state-independent and every component
// owns its own stream, so the shared draws are bit-identical to what each
// fork's own streams would produce — the scalar and batch paths yield
// byte-identical Results (TestBatchBitIdentical).
//
// The forks' hot per-tick state (EKF filter, rigid body) is restored into
// contiguous structure-of-arrays slabs so the kernels stream over the
// batch with amortized cache traffic instead of chasing per-fork heap
// allocations.
//
// Forks stay in lockstep for their whole flight, including after a primary
// IMU switch (redundancy voting, or the failsafe isolation stage rotating
// sensors). The switch re-phases the fork's IMU ticks, since the new
// primary's ticker fires on its own schedule, but its k-th IMU tick still
// consumes the k-th draw of every unit. Each fork therefore reads the
// donor's IMU draw sets by its own count (imuDraws), not by tick; GPS,
// baro, mag and wind schedules do not depend on the primary and stay per
// tick.
type Batch struct {
	donor    *Vehicle
	forks    []*Vehicle
	imuDraws []int // per fork: IMU draw sets consumed since the checkpoint
	env      envDraws

	// Contiguous hot-state slabs the forks' pointers are re-aimed at.
	filters []ekf.Filter
	bodies  []physics.Body
}

// NewBatch forks one vehicle per injection from the checkpoint, all or
// nothing: any invalid fork (scope mismatch, window overlap — see
// ForkWithInjection) fails the whole batch so the caller can fall back to
// the scalar path case by case.
func NewBatch(cp *Checkpoint, injs []*faultinject.Injection) (*Batch, error) {
	if len(injs) == 0 {
		return nil, fmt.Errorf("sim: empty batch")
	}
	donor, err := cp.Fork(nil)
	if err != nil {
		return nil, err
	}
	b := &Batch{
		donor:    donor,
		forks:    make([]*Vehicle, len(injs)),
		imuDraws: make([]int, len(injs)),
		env:      envDraws{imus: donor.imus},
		filters:  make([]ekf.Filter, len(injs)),
		bodies:   make([]physics.Body, len(injs)),
	}
	for i, inj := range injs {
		v, err := cp.ForkWithInjection(inj, nil)
		if err != nil {
			return nil, fmt.Errorf("sim: batch fork %d: %w", i, err)
		}
		// Move the hot state into the slabs. Filter is all-value state;
		// Body's only pointer field is its wind process, which the batch
		// path never steps (the donor owns the shared wind).
		b.filters[i] = *v.filter
		v.filter = &b.filters[i]
		b.bodies[i] = *v.body
		v.body = &b.bodies[i]
		b.forks[i] = v
	}
	return b, nil
}

// Run steps all forks in lockstep to their outcomes and returns the
// finalized results, index-aligned with the injections. An error (an IMU
// draw set a fork asks for has left the window) voids the whole batch: it
// never returns partial results.
func (b *Batch) Run() ([]Result, error) {
	for {
		active := false
		for _, v := range b.forks {
			if !v.done && v.step < v.steps {
				active = true
				break
			}
		}
		if !active {
			break
		}
		b.donor.drawEnv(&b.env)
		for i, v := range b.forks {
			if v.done || v.step >= v.steps {
				continue
			}
			if err := v.stepEnv(&b.env, &b.imuDraws[i]); err != nil {
				return nil, fmt.Errorf("sim: batch fork %d: %w", i, err)
			}
		}
	}
	results := make([]Result, len(b.forks))
	for i, v := range b.forks {
		results[i] = v.finalize()
	}
	return results, nil
}
