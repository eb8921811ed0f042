package sim

import (
	"fmt"
	"reflect"

	"uavres/internal/faultinject"
)

// Batch steps forks of one flight environment in lockstep: one donor
// vehicle advances the shared environment streams (sensor noise, wind
// gust) and each fork composes those deviates with its own diverged truth
// via stepEnv. Environment noise depends only on the seed and the time,
// never on vehicle state or injection, and every component owns its own
// stream, so the shared draws are bit-identical to what each fork's own
// streams would produce — the scalar and batch paths yield byte-identical
// Results (TestBatchBitIdentical).
//
// The forks may start at different snapshots (different injection
// starts, different prefix flights of the same mission, seed and
// airframe, or a launch snapshot at step 0 for a gold run or an
// immediate injection). The donor forks from the earliest, and each fork
// joins the lockstep loop on the tick the donor reaches its own snapshot:
// from there on the donor's draws are exactly what the fork's own streams
// would draw next (TestBatchAcrossStartsBitIdentical,
// TestBatchAcrossPrefixesBitIdentical).
//
// Each fork's whole state is one contiguous value inside its Vehicle, so
// the lockstep loop walks the forks one after another with no pointer to
// chase inside any of them.
//
// Forks stay in lockstep for their whole flight, including after a primary
// IMU switch (redundancy voting, or the failsafe isolation stage rotating
// sensors). The switch re-phases the fork's IMU ticks, since the new
// primary's ticker fires on its own schedule, but its k-th IMU tick still
// consumes the k-th draw of every unit. Each fork therefore reads the
// donor's IMU draw sets by its own count since launch (vehicleState.imuSets),
// which rides the snapshot, not by tick; GPS, baro, mag and wind schedules
// do not depend on the primary and stay per tick.
type Batch struct {
	donor *Vehicle
	cps   []*Checkpoint // per fork; nil once the fork has joined
	injs  []*faultinject.Injection
	forks []*Vehicle // per fork; nil before it joins and once it finished
	env   envDraws

	// finished, if set, sees each fork as it finishes, before the batch
	// lets it go (tests inspect the forks' end state through it).
	finished func(i int, v *Vehicle)
}

// NewBatch prepares one fork per injection, fork i from checkpoint cps[i].
// The checkpoints must be in non-decreasing step order and fly one
// environment: every checkpoint has the Config (seed and airframe
// included) and mission of cps[0]; they may come from different prefix
// flights. Validation is all or nothing: a checkpoint of another
// environment, or any invalid fork (scope mismatch, window overlap — see
// ForkWithInjection), fails the whole batch so the caller can fall back
// to the scalar path case by case.
//
// The batch takes cps over: Run builds each fork only when it joins and
// then sets cps[i] to nil, so a snapshot lives no longer than it is needed.
func NewBatch(cps []*Checkpoint, injs []*faultinject.Injection) (*Batch, error) {
	if len(injs) == 0 || len(cps) != len(injs) {
		return nil, fmt.Errorf("sim: batch of %d checkpoints and %d injections", len(cps), len(injs))
	}
	for i, cp := range cps {
		if cp.cfg != cps[0].cfg || !reflect.DeepEqual(cp.m, cps[0].m) {
			return nil, fmt.Errorf("sim: batch fork %d: checkpoint flies another environment than fork 0's", i)
		}
		if i > 0 && cp.s.step < cps[i-1].s.step {
			return nil, fmt.Errorf("sim: batch fork %d: checkpoint at step %d precedes fork %d's at step %d",
				i, cp.s.step, i-1, cps[i-1].s.step)
		}
		if err := cp.checkFork(injs[i]); err != nil {
			return nil, fmt.Errorf("sim: batch fork %d: %w", i, err)
		}
	}
	donor, err := cps[0].Fork(nil)
	if err != nil {
		return nil, err
	}
	return &Batch{
		donor: donor,
		cps:   cps,
		injs:  injs,
		forks: make([]*Vehicle, len(injs)),
		env:   envDraws{imus: &donor.s.imus, imuFirst: donor.s.imuSets, imuDrawn: donor.s.imuSets},
	}, nil
}

// Run steps all forks in lockstep to their outcomes and returns the
// finalized results, index-aligned with the injections. An error (a fork
// that cannot be built, or an IMU draw set a fork asks for has left the
// window) voids the whole batch: it never returns partial results.
func (b *Batch) Run() ([]Result, error) {
	results := make([]Result, len(b.forks))
	next := 0 // the first fork still to join
	for {
		for ; next < len(b.cps) && b.cps[next].s.step <= b.donor.s.step; next++ {
			if err := b.join(next); err != nil {
				return nil, err
			}
		}
		live := false
		for i, v := range b.forks {
			if v == nil {
				continue
			}
			if !v.flying() {
				results[i] = v.finalize()
				if b.finished != nil {
					b.finished(i, v)
				}
				b.forks[i] = nil
				continue
			}
			live = true
		}
		if !live && next == len(b.cps) {
			return results, nil
		}
		b.donor.drawEnv(&b.env)
		for i, v := range b.forks {
			if v == nil {
				continue
			}
			if err := v.stepEnv(&b.env); err != nil {
				return nil, fmt.Errorf("sim: batch fork %d: %w", i, err)
			}
		}
	}
}

// join builds fork i from its checkpoint and releases the checkpoint.
func (b *Batch) join(i int) error {
	v, err := b.cps[i].ForkWithInjection(b.injs[i], nil)
	if err != nil {
		return fmt.Errorf("sim: batch fork %d: %w", i, err)
	}
	b.cps[i] = nil
	b.forks[i] = v
	return nil
}
