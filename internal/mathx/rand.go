package mathx

import (
	"fmt"
	"math"
)

// NormPolicy names the normal-deviate algorithm a Rand uses. Child
// streams inherit it, so one policy choice at the campaign level governs
// every derived noise stream.
type NormPolicy uint8

const (
	// NormPolar is the Marsaglia polar method — the default, kept
	// bit-compatible with every previously recorded campaign.
	NormPolar NormPolicy = iota
	// NormZiggurat is a 128-layer ziggurat (Marsaglia-Tsang layout,
	// Doornik-style float tables computed at init): most draws cost one
	// uniform, one table compare, and one multiply — no Log or Sqrt on
	// the fast path — at the price of a different (equally valid)
	// deviate stream.
	NormZiggurat
)

// String names the policy as specs and bench metadata spell it.
func (p NormPolicy) String() string {
	if p == NormZiggurat {
		return "ziggurat"
	}
	return "polar"
}

// ParseNormPolicy resolves a spec/flag spelling of a policy. The empty
// string means the default (polar), so configs can omit the knob.
func ParseNormPolicy(s string) (NormPolicy, error) {
	switch s {
	case "", "polar":
		return NormPolar, nil
	case "ziggurat":
		return NormZiggurat, nil
	default:
		return NormPolar, fmt.Errorf("mathx: unknown RNG policy %q (want polar or ziggurat)", s)
	}
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
	policy    NormPolicy
}

// NewRand returns a generator seeded with seed using the default polar
// normal policy. Distinct seeds yield streams that are effectively
// independent (splitmix64's increment is a full-period odd constant).
func NewRand(seed int64) *Rand {
	return &Rand{s: uint64(seed)}
}

// NewRandPolicy returns a generator seeded with seed whose NormFloat64
// uses the given policy. NewRandPolicy(seed, NormPolar) is NewRand(seed).
func NewRandPolicy(seed int64, p NormPolicy) *Rand {
	return &Rand{s: uint64(seed), policy: p}
}

// Policy returns the generator's normal-deviate policy.
func (r *Rand) Policy() NormPolicy { return r.policy }

// Child derives a new stream seeded from this one, inheriting the policy.
// The seed derivation (Int63) is identical to the historical
// NewRand(rng.Int63()) idiom, so polar-policy children are bit-compatible
// with every recorded campaign.
func (r *Rand) Child() *Rand {
	return NewRandPolicy(r.Int63(), r.policy)
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

// NormFloat64 returns a standard normal deviate using the generator's
// policy: the Marsaglia polar method by default, or the ziggurat when the
// stream was built with NormZiggurat. The polar method's second deviate is
// cached in the generator, so a copy continues exactly; the ziggurat holds
// no extra state beyond the uniform stream.
func (r *Rand) NormFloat64() float64 {
	if r.policy == NormZiggurat {
		return r.zigNormFloat64()
	}
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

// Ziggurat tables for the standard normal, 128 layers. zigX[i] is layer
// i's right edge (zigX[0] is the base layer's virtual width V/f(R), which
// makes the rectangle test below uniform across layers); zigRatio[i] =
// zigX[i+1]/zigX[i] is the precomputed inside-rectangle threshold. The
// tables are deterministic constants; computing them at init keeps the
// source readable without 128-entry literal blocks.
const (
	zigLayers = 128
	// zigTailR is the base-layer split point r: beyond it the tail is
	// sampled exactly; V is the equal area of every layer.
	zigTailR = 3.442619855899
	zigV     = 9.91256303526217e-3
)

var (
	zigX     [zigLayers + 1]float64
	zigRatio [zigLayers]float64
)

func init() {
	f := math.Exp(-0.5 * zigTailR * zigTailR)
	zigX[0] = zigV / f
	zigX[1] = zigTailR
	zigX[zigLayers] = 0
	for i := 2; i < zigLayers; i++ {
		zigX[i] = math.Sqrt(-2 * math.Log(zigV/zigX[i-1]+f))
		f = math.Exp(-0.5 * zigX[i] * zigX[i])
	}
	for i := 0; i < zigLayers; i++ {
		zigRatio[i] = zigX[i+1] / zigX[i]
	}
}

// zigNormFloat64 draws one deviate via the ziggurat: pick a layer and a
// signed uniform; inside the layer's rectangle the draw is done, otherwise
// fall through to the exact tail (layer 0) or the wedge rejection test.
func (r *Rand) zigNormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		i := r.next() & (zigLayers - 1)
		if math.Abs(u) < zigRatio[i] {
			return u * zigX[i]
		}
		if i == 0 {
			return r.zigTail(u < 0)
		}
		x := u * zigX[i]
		f0 := math.Exp(-0.5 * (zigX[i]*zigX[i] - x*x))
		f1 := math.Exp(-0.5 * (zigX[i+1]*zigX[i+1] - x*x))
		if f1+r.Float64()*(f0-f1) < 1.0 {
			return x
		}
	}
}

// zigTail samples the normal tail beyond zigTailR exactly (Marsaglia's
// method). A zero uniform yields -Inf intermediates that simply fail the
// acceptance test, so the loop is total.
func (r *Rand) zigTail(negative bool) float64 {
	for {
		x := math.Log(r.Float64()) / zigTailR // x <= 0
		y := math.Log(r.Float64())
		if -2*y >= x*x {
			if negative {
				return x - zigTailR
			}
			return zigTailR - x
		}
	}
}
