package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
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
