// Package oracle is the benchmark's independent reference for the paper's
// Eq. 3: the application-level required bandwidth is the maximum, over the
// regions cut out by every phase start and end, of the sum of the values of
// the phases covering the region.
//
// It deliberately imports nothing from the program under test (no region,
// no metrics): it sorts the boundaries, keeps a running sum, and takes the
// maximum over regions. The output checks of every workload compare the
// program against it.
package oracle

import "sort"

// Phase is one rank-level phase: Value bytes/s over [Start, End), with
// times in integer nanoseconds of virtual time.
type Phase struct {
	Start, End int64
	Value      float64
}

// Point is one step of the swept series: the series holds V from T (ns)
// until the next point.
type Point struct {
	T int64
	V float64
}

// NanosOf converts a streamed seconds value to virtual nanoseconds the way
// the telemetry wire format defines it: non-positive values clamp to zero
// and the fraction below a nanosecond is truncated.
func NanosOf(sec float64) int64 {
	if sec <= 0 {
		return 0
	}
	return int64(sec * 1e9)
}

// Sweep returns the step series of the phases. Phases with empty or
// inverted windows contribute nothing. Boundaries are taken in (time,
// delta) order and all boundaries at one instant are applied before the
// region value is read, so the running sum sees the same additions in the
// same order whatever order the phases arrive in. A region whose value
// repeats the previous one adds no point, and a sum that cancellation
// noise leaves within 1e-9 below zero reads as zero. The series ends with
// the region after the last boundary.
func Sweep(phases []Phase) []Point {
	type boundary struct {
		t     int64
		delta float64
	}
	bs := make([]boundary, 0, 2*len(phases))
	for _, ph := range phases {
		if ph.End <= ph.Start {
			continue
		}
		bs = append(bs, boundary{ph.Start, ph.Value}, boundary{ph.End, -ph.Value})
	}
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].t != bs[j].t {
			return bs[i].t < bs[j].t
		}
		return bs[i].delta < bs[j].delta
	})
	var out []Point
	sum := 0.0
	for i := 0; i < len(bs); {
		t := bs[i].t
		for ; i < len(bs) && bs[i].t == t; i++ {
			sum += bs[i].delta
		}
		v := sum
		if v < 0 && v > -1e-9 {
			v = 0
		}
		if n := len(out); n > 0 && out[n-1].V == v {
			continue
		}
		out = append(out, Point{T: t, V: v})
	}
	return out
}

// Max is the largest region value of a series, and 0 for an empty one:
// the application-level required bandwidth.
func Max(series []Point) float64 {
	m := 0.0
	for _, p := range series {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Required is Max(Sweep(phases)).
func Required(phases []Phase) float64 { return Max(Sweep(phases)) }
