package main

import "testing"

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	} {
		if got := quantile(xs, tc.q); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestWorkRate(t *testing.T) {
	passes := []*passResult{
		{work: 2, opSecs: []float64{1, 3}},
		{work: 2, opSecs: []float64{2, 1}},
		{work: 2, opSecs: []float64{4, 2}},
	}
	secs := []float64{4, 3, 6}
	// Per op: medians 2 and 2, so 2 units over 4 s.
	if got := workRate(rateRule{perOp: true, q: 0.5}, passes, secs); got != 0.5 {
		t.Errorf("per-op median rate = %v, want 0.5", got)
	}
	// Per pass: rates 0.5, 0.667, 0.333; the top one.
	if got := workRate(rateRule{q: 1}, passes, secs); got < 0.666 || got > 0.667 {
		t.Errorf("per-pass max rate = %v, want 2/3", got)
	}
}
