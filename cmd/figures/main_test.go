package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"uavres/internal/sim"
)

// TestRenderMatchesGolden flies every figure and requires the printed
// outcomes, paper verdicts included, to equal testdata/figures.txt, and
// every SVG to be written.
func TestRenderMatchesGolden(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := render(dir, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/figures.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("figures output differs from testdata/figures.txt:\n got:\n%s\nwant:\n%s", got, want)
	}
	for _, name := range []string{
		"fig2_bubble.svg",
		"fig3_acc_fixed.svg", "fig3_acc_fixed_alt.svg",
		"fig4_gyro_random.svg", "fig4_gyro_random_alt.svg",
		"fig5_imu_random.svg", "fig5_imu_random_alt.svg",
	} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

// TestFig2ViolationsFromObserver recounts Figure 2's bubble violations
// from the 1 Hz observer stream alone: a sample whose deviation exceeds
// its inner (outer) radius is one inner (outer) violation. The recount
// must cross both layers, equal the run's counts and agree with every
// sample's own violation flags. testdata/figures.txt pins the counts.
func TestFig2ViolationsFromObserver(t *testing.T) {
	var inner, outer, samples int
	_, res, err := flyFig2(func(tel sim.Telemetry) {
		b := tel.Bubble
		in, out := b.Deviation > b.InnerRadius, b.Deviation > b.OuterRadius
		if in {
			inner++
		}
		if out {
			outer++
		}
		if b.InnerViolated != in || b.OuterViolated != out {
			t.Errorf("sample at %.1f s: deviation %.3f, radii %.3f/%.3f, flagged inner=%v outer=%v",
				b.T, b.Deviation, b.InnerRadius, b.OuterRadius, b.InnerViolated, b.OuterViolated)
		}
		samples++
	})
	if err != nil {
		t.Fatal(err)
	}
	if inner == 0 || outer == 0 {
		t.Fatalf("%d observations recount %d/%d violations; Figure 2 needs both layers crossed",
			samples, inner, outer)
	}
	if inner != res.InnerViolations || outer != res.OuterViolations {
		t.Errorf("observer recounts %d/%d violations, the run %d/%d",
			inner, outer, res.InnerViolations, res.OuterViolations)
	}
}
