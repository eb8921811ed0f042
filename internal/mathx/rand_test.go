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

// TestRandSnapshotResume is the property checkpointing rests on: a stream
// restored from State continues bit-identically, including across a cached
// Box-Muller/polar spare deviate.
func TestRandSnapshotResume(t *testing.T) {
	r := NewRand(555)
	// Burn an odd number of normal deviates so a spare is cached.
	for i := 0; i < 7; i++ {
		r.NormFloat64()
	}
	st := r.State()
	var want []float64
	for i := 0; i < 64; i++ {
		want = append(want, r.NormFloat64(), r.Float64(), float64(r.Int63()))
	}

	fork := NewRand(0)
	fork.SetState(st)
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
		{"ziggurat", NormZiggurat, true},
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
	if NormPolar.String() != "polar" || NormZiggurat.String() != "ziggurat" {
		t.Errorf("policy String() mismatch: %q %q", NormPolar, NormZiggurat)
	}
}

// TestNewRandPolicyPolarBitCompatible pins the acceptance property of the
// policy layer: a polar-policy stream is the historical stream, bit for bit.
func TestNewRandPolicyPolarBitCompatible(t *testing.T) {
	a := NewRand(42)
	b := NewRandPolicy(42, NormPolar)
	for i := 0; i < 1000; i++ {
		if a.NormFloat64() != b.NormFloat64() {
			t.Fatalf("polar policy diverged from NewRand at draw %d", i)
		}
	}
}

func TestZigguratMoments(t *testing.T) {
	r := NewRandPolicy(123, NormZiggurat)
	const n = 200000
	var sum, sumSq, sumCube float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
		sumCube += x * x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	skew := sumCube / n
	if math.Abs(mean) > 0.02 {
		t.Errorf("ziggurat mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("ziggurat variance = %v, want ~1", variance)
	}
	if math.Abs(skew) > 0.05 {
		t.Errorf("ziggurat third moment = %v, want ~0", skew)
	}
}

// TestZigguratTailCoverage forces the slow paths: in a large sample both
// tails beyond the base-layer split point must be populated, roughly
// symmetrically, at about the theoretical 2·Φ(-r) ≈ 5.75e-4 rate.
func TestZigguratTailCoverage(t *testing.T) {
	r := NewRandPolicy(77, NormZiggurat)
	const n = 2000000
	var lo, hi int
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		if x <= -zigTailR {
			lo++
		} else if x >= zigTailR {
			hi++
		}
	}
	total := lo + hi
	if total < 600 || total > 1800 {
		t.Errorf("tail draws = %d of %d, want ~%d", total, n, int(5.75e-4*n))
	}
	if lo == 0 || hi == 0 {
		t.Errorf("tail draws one-sided: lo=%d hi=%d", lo, hi)
	}
}

// TestZigguratSnapshotResume mirrors TestRandSnapshotResume under the
// ziggurat policy: RandState carries no policy, so the fork must be
// constructed with the same policy and then continues bit-identically.
func TestZigguratSnapshotResume(t *testing.T) {
	r := NewRandPolicy(555, NormZiggurat)
	for i := 0; i < 7; i++ {
		r.NormFloat64()
	}
	st := r.State()
	var want []float64
	for i := 0; i < 256; i++ {
		want = append(want, r.NormFloat64(), r.Float64())
	}

	fork := NewRandPolicy(0, NormZiggurat)
	fork.SetState(st)
	for i := 0; i < 256; i++ {
		if g := fork.NormFloat64(); g != want[2*i] {
			t.Fatalf("restored ziggurat stream diverged at norm draw %d: got %v want %v", i, g, want[2*i])
		}
		if g := fork.Float64(); g != want[2*i+1] {
			t.Fatalf("restored ziggurat stream diverged at uniform draw %d", i)
		}
	}
}

// TestChildInheritsPolicy pins the fork-split contract: Child derives its
// seed exactly as the historical NewRand(r.Int63()) idiom and carries the
// parent's policy, so a whole tree of streams follows one campaign-level
// policy choice deterministically.
func TestChildInheritsPolicy(t *testing.T) {
	parent := NewRandPolicy(9001, NormZiggurat)
	mirror := NewRandPolicy(9001, NormZiggurat)

	child := parent.Child()
	if child.Policy() != NormZiggurat {
		t.Fatalf("child policy = %v, want ziggurat", child.Policy())
	}
	oldIdiom := NewRandPolicy(mirror.Int63(), NormZiggurat)
	for i := 0; i < 500; i++ {
		if child.NormFloat64() != oldIdiom.NormFloat64() {
			t.Fatalf("Child() seed derivation diverged from NewRand(Int63()) at draw %d", i)
		}
	}

	// Splitting is reproducible: same parent state, same child stream.
	p2 := NewRandPolicy(9001, NormZiggurat)
	c2 := p2.Child()
	c1 := NewRandPolicy(9001, NormZiggurat).Child()
	for i := 0; i < 500; i++ {
		if c1.NormFloat64() != c2.NormFloat64() {
			t.Fatalf("fork split not reproducible at draw %d", i)
		}
	}

	if NewRand(1).Child().Policy() != NormPolar {
		t.Fatalf("polar child policy lost")
	}
}

// TestNormFloat64AllocFree pins one normal deviate at zero allocations
// per op under both sampling policies.
func TestNormFloat64AllocFree(t *testing.T) {
	for _, p := range []NormPolicy{NormPolar, NormZiggurat} {
		r := NewRandPolicy(1, p)
		if n := testing.AllocsPerRun(1000, func() { _ = r.NormFloat64() }); n != 0 {
			t.Errorf("NormFloat64 under %v allocates %v per op, want 0", p, n)
		}
	}
}
