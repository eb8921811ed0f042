package mathx

import (
	"fmt"
	"math"
)

// NormPolicy names a normal-deviate algorithm. Polar is the only one;
// the type, NormPolar, ParseNormPolicy and NewRandPolicy stay because the
// campaign benchmark (benchsuite/) compiles against them.
type NormPolicy uint8

// NormPolar is the Marsaglia polar method, the one sampler.
const NormPolar NormPolicy = 0

// String names the policy as specs and results headers spell it.
func (NormPolicy) String() string { return "polar" }

// ParseNormPolicy resolves a spelling of the sampler: the empty string
// and "polar" name it; anything else is an error.
func ParseNormPolicy(s string) (NormPolicy, error) {
	if s != "" && s != "polar" {
		return NormPolar, fmt.Errorf("mathx: unknown RNG policy %q (want polar)", s)
	}
	return NormPolar, nil
}

// Rand is a small, fast PRNG (splitmix64 core) exposing the method
// surface the simulation needs from math/rand: Float64, Int63, and
// NormFloat64. Unlike math/rand.Rand it is a plain value with no pointer
// inside, so copying a Rand copies the whole stream: that is what makes
// simulation checkpointing possible, since a forked run resumes every
// noise stream bit-exactly where the checkpointed run left it.
//
// The zero value is a valid generator seeded with 0. Not safe for
// concurrent use; each consumer owns its own stream.
type Rand struct {
	s         uint64
	spare     float64 // cached second deviate from the polar method
	haveSpare bool
}

// NewRand returns a generator seeded with seed. Distinct seeds yield
// streams that are effectively independent (splitmix64's increment is a
// full-period odd constant).
func NewRand(seed int64) *Rand {
	return &Rand{s: uint64(seed)}
}

// NewRandPolicy is NewRand(seed); polar is the only policy. It stays
// because the campaign benchmark (benchsuite/) compiles against it.
func NewRandPolicy(seed int64, _ NormPolicy) *Rand { return NewRand(seed) }

// Child derives a new stream seeded from this one. The seed derivation
// (Int63) is identical to the historical NewRand(rng.Int63()) idiom, so
// children are bit-compatible with every recorded campaign.
func (r *Rand) Child() *Rand {
	return NewRand(r.Int63())
}

// next advances the splitmix64 state and returns the next 64-bit output.
func (r *Rand) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 { return r.next() }

// Int63 returns a non-negative uniformly distributed 63-bit integer,
// mirroring math/rand.Int63 (used to derive child-stream seeds).
func (r *Rand) Int63() int64 { return int64(r.next() >> 1) }

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal deviate by the Marsaglia polar
// method. Its second deviate is cached in the generator, so a copy
// continues exactly.
func (r *Rand) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		//lint:allow floatcmp exact zero guard before dividing by s
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}
