package stats

import (
	"math"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {10, 14}, {-5, 10}, {120, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !approx(got, c.want) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile != 0")
	}
	// Input must not be mutated (sorted copy).
	orig := []float64{3, 1, 2}
	Percentile(orig, 50)
	if orig[0] != 3 || orig[2] != 2 {
		t.Error("Percentile mutated input")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 4) != 2.5 || Ratio(1, 0) != 0 {
		t.Error("Ratio wrong")
	}
}
