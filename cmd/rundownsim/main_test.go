package main

import "testing"

func TestSparkline(t *testing.T) {
	if s := sparkline([]float64{0, 0.5, 1, -1, 2}); s != " ▄█ █" {
		t.Errorf("sparkline = %q", s)
	}
	if sparkline(nil) != "" {
		t.Error("empty sparkline")
	}
}

func TestFormatPercent(t *testing.T) {
	if formatPercent(0.973) != "97.3%" {
		t.Errorf("formatPercent = %q", formatPercent(0.973))
	}
}
