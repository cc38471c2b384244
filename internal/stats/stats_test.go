package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if Geomean(nil) != 0 {
		t.Fatal("empty geomean")
	}
	if got := Geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean = %v, want 4", got)
	}
	// Non-positive entries skipped.
	if got := Geomean([]float64{0, -3, 2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean with junk = %v, want 4", got)
	}
	if Geomean([]float64{0, -1}) != 0 {
		t.Fatal("all-junk geomean should be 0")
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(10, 2) != 5 {
		t.Fatal("speedup")
	}
	if Speedup(10, 0) != 0 {
		t.Fatal("speedup by zero")
	}
}

func TestQuickGeomeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) && x < 1e100 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := Geomean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "Demo", Header: []string{"graph", "x", "y"}}
	tb.AddRow("LJ", "1.0", "2.0")
	tb.AddRow("TW", fmt.Sprintf("%.2f", 3.14159), fmt.Sprintf("%.2f", 2.71828))
	s := tb.String()
	for _, want := range []string{"== Demo ==", "graph", "LJ", "3.14", "2.72", "---"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[float64]string{
		2.5:     "2.50s",
		0.0042:  "4.2ms",
		0.00001: "10µs",
	}
	for in, want := range cases {
		if got := FormatDuration(in); got != want {
			t.Fatalf("FormatDuration(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatCount(t *testing.T) {
	cases := map[float64]string{
		12:      "12",
		1500:    "1.5K",
		2300000: "2.30M",
		4.2e9:   "4.20B",
	}
	for in, want := range cases {
		if got := FormatCount(in); got != want {
			t.Fatalf("FormatCount(%v) = %q, want %q", in, got, want)
		}
	}
}
