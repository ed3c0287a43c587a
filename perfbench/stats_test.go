package main

import "testing"

// The steadiness table computes quartiles as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), the
// convention the spreads behind BENCHMARK.json's bounds are taken with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.2, 1.5, 9.9, 4.4, 7.1}, 2.35, 4.4, 8.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(median(c.xs), c.med) || !near(q3, c.q3) {
			t.Errorf("%v: got q1 %g median %g q3 %g, want %g %g %g", c.xs, q1, median(c.xs), q3, c.q1, c.med, c.q3)
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }
