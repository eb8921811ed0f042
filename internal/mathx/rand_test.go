package mathx

import (
	"math"
	"testing"
)

func TestRandDeterministicBySeed(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical 64-bit draws", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v outside [0, 1)", f)
		}
	}
}

func TestRandInt63NonNegative(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		if v := r.Int63(); v < 0 {
			t.Fatalf("Int63() = %d negative", v)
		}
	}
}

func TestRandNormFloat64Moments(t *testing.T) {
	r := NewRand(123)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

// TestRandSnapshotResume is the property checkpointing rests on: a copy
// of a stream continues bit-identically, including across a cached
// Box-Muller/polar spare deviate.
func TestRandSnapshotResume(t *testing.T) {
	r := NewRand(555)
	// Burn an odd number of normal deviates so a spare is cached.
	for i := 0; i < 7; i++ {
		r.NormFloat64()
	}
	fork := *r
	var want []float64
	for i := 0; i < 64; i++ {
		want = append(want, r.NormFloat64(), r.Float64(), float64(r.Int63()))
	}

	for i := 0; i < 64; i++ {
		got := []float64{fork.NormFloat64(), fork.Float64(), float64(fork.Int63())}
		for k, g := range got {
			if g != want[3*i+k] {
				t.Fatalf("restored stream diverged at draw %d.%d: got %v want %v", i, k, g, want[3*i+k])
			}
		}
	}
}

func TestParseNormPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want NormPolicy
		ok   bool
	}{
		{"", NormPolar, true},
		{"polar", NormPolar, true},
		{"ziggurat", NormPolar, false},
		{"box-muller", NormPolar, false},
		{"Polar", NormPolar, false},
	}
	for _, c := range cases {
		got, err := ParseNormPolicy(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseNormPolicy(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseNormPolicy(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if NormPolar.String() != "polar" {
		t.Errorf("NormPolar.String() = %q, want polar", NormPolar)
	}
}

// TestNewRandPolicyPolarBitCompatible: NewRandPolicy, kept for the
// campaign benchmark, is the NewRand stream bit for bit.
func TestNewRandPolicyPolarBitCompatible(t *testing.T) {
	a := NewRand(42)
	b := NewRandPolicy(42, NormPolar)
	for i := 0; i < 1000; i++ {
		if a.NormFloat64() != b.NormFloat64() {
			t.Fatalf("polar policy diverged from NewRand at draw %d", i)
		}
	}
}

// TestNormFloat64AllocFree pins one normal deviate at zero allocations
// per op.
func TestNormFloat64AllocFree(t *testing.T) {
	r := NewRand(1)
	if n := testing.AllocsPerRun(1000, func() { _ = r.NormFloat64() }); n != 0 {
		t.Errorf("NormFloat64 allocates %v per op, want 0", n)
	}
}
