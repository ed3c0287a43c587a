// Package check holds the benchmark's output checks. Each check takes
// plain values — what the program returned and what the benchmark knows
// independently of it (its own inputs, the oracle's sweep, figures
// computed from a workload's configuration) — and returns an error
// naming the first disagreement.
package check

import (
	"fmt"
	"math"

	"iobehind/perfbench/oracle"
)

// RelTol is the relative tolerance of every floating-point comparison.
const RelTol = 1e-9

// near reports whether a and b agree within RelTol of scale.
func near(a, b, scale float64) bool {
	return math.Abs(a-b) <= RelTol*math.Max(scale, math.Max(math.Abs(a), math.Abs(b)))
}

// Bandwidth checks a reported application-level required bandwidth
// against the oracle's maximum over the same phases.
func Bandwidth(what string, got float64, phases []oracle.Phase) error {
	want := oracle.Required(phases)
	if !near(got, want, 0) {
		return fmt.Errorf("%s: required bandwidth %.17g, the reference sweep gives %.17g", what, got, want)
	}
	return nil
}

// Series checks a step series point for point against the oracle's sweep
// of phases: the same boundaries, and values within RelTol of the
// series' peak.
func Series(what string, got []oracle.Point, phases []oracle.Phase) error {
	want := oracle.Sweep(phases)
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d series points, the reference sweep has %d", what, len(got), len(want))
	}
	scale := oracle.Max(want)
	for i := range want {
		if got[i].T != want[i].T || !near(got[i].V, want[i].V, scale) {
			return fmt.Errorf("%s: point %d is (%d ns, %.17g), the reference has (%d ns, %.17g)",
				what, i, got[i].T, got[i].V, want[i].T, want[i].V)
		}
	}
	return nil
}

// Ingest is a gateway's record accounting after a producer stopped.
type Ingest struct {
	Sent, Ingested, Dropped, DecodeErrors, Late int64
}

// IngestComplete checks that every record sent was aggregated and none
// was dropped, undecodable or rejected as late.
func IngestComplete(in Ingest) error {
	if in.Ingested != in.Sent || in.Dropped != 0 || in.DecodeErrors != 0 || in.Late != 0 {
		return fmt.Errorf("ingest: sent %d, ingested %d, dropped %d, decode errors %d, late %d",
			in.Sent, in.Ingested, in.Dropped, in.DecodeErrors, in.Late)
	}
	return nil
}

// Failed is the number of records IngestComplete finds missing or
// rejected; zero when it passes.
func (in Ingest) Failed() int64 {
	missing := in.Sent - in.Ingested
	if missing < 0 {
		missing = 0
	}
	return missing + in.Late
}

// Forecast is a next-burst prediction as the gateway serves it.
type Forecast struct {
	OK           bool
	PeriodSec    float64
	NextBurstSec float64
}

// ForecastMatches checks a forecast made at nowSec for a stream the
// benchmark built with period periodSec: the forecast must exist, point
// past the query time, and detect a frequency within one DFT bin
// (1/spanSec, spanSec being the analysed window) of 1/periodSec.
func ForecastMatches(what string, f Forecast, nowSec, periodSec, spanSec float64) error {
	if !f.OK || f.PeriodSec <= 0 {
		return fmt.Errorf("%s: no forecast", what)
	}
	if !(f.NextBurstSec > nowSec) {
		return fmt.Errorf("%s: next burst at %.9g s is not after the query time %.9g s", what, f.NextBurstSec, nowSec)
	}
	if bins := math.Abs(1/f.PeriodSec-1/periodSec) * spanSec; !(bins <= 1) {
		return fmt.Errorf("%s: detected period %.6g s is %.2f frequency bins from the built-in period %.6g s",
			what, f.PeriodSec, bins, periodSec)
	}
	return nil
}

// BytesWritten checks a HACC-IO run's written bytes against the total its
// configuration implies: every rank writes its particles' variables once
// per loop, plus one synchronous header per loop.
func BytesWritten(got int64, ranks, loops int, particles, bytesPerParticle, headerBytes int64) error {
	want := int64(ranks) * int64(loops) * (particles*bytesPerParticle + headerBytes)
	if got != want {
		return fmt.Errorf("hacc: wrote %d B, the configuration implies %d B", got, want)
	}
	return nil
}

// LimiterShape checks the paper's Fig. 13 contrast between a limited and
// an unlimited run: only the limited run ever applies a limit, and it
// hides far more of its I/O behind compute (exploit shares in percent).
func LimiterShape(limitedFirstLimitNs, unlimitedFirstLimitNs int64, limitedExploit, unlimitedExploit float64) error {
	if limitedFirstLimitNs <= 0 {
		return fmt.Errorf("hacc: the adaptive run never applied a limit")
	}
	if unlimitedFirstLimitNs != 0 {
		return fmt.Errorf("hacc: the unlimited run applied a limit at %d ns", unlimitedFirstLimitNs)
	}
	if !(limitedExploit >= 25+unlimitedExploit && limitedExploit >= 3*unlimitedExploit) {
		return fmt.Errorf("hacc: adaptive exploit %.1f%% is not far above the unlimited %.1f%%", limitedExploit, unlimitedExploit)
	}
	return nil
}

// SameText checks that two renderings are byte-identical and names the
// first line that differs.
func SameText(what, got, want string) error {
	if got == want {
		return nil
	}
	line, i := 1, 0
	for ; i < len(got) && i < len(want) && got[i] == want[i]; i++ {
		if got[i] == '\n' {
			line++
		}
	}
	return fmt.Errorf("%s: rendering differs from the reference at line %d (byte %d; %d vs %d bytes)", what, line, i, len(got), len(want))
}
