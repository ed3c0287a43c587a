package check

import (
	"strings"
	"testing"

	"iobehind/perfbench/oracle"
)

const sec = int64(1e9)

// stream is a small two-rank record set: its sweep has several regions,
// one of them shared, so single-record faults change the series.
func stream() []oracle.Phase {
	return []oracle.Phase{
		{Start: 1 * sec, End: 6 * sec, Value: 30e6},
		{Start: 2 * sec, End: 8 * sec, Value: 20e6},
		{Start: 3 * sec, End: 10 * sec, Value: 50e6},
		{Start: 12 * sec, End: 14 * sec, Value: 10e6},
	}
}

func TestChecksPassOnFaithfulOutput(t *testing.T) {
	phases := stream()
	got := oracle.Sweep(phases)
	if err := Series("app", got, phases); err != nil {
		t.Fatal(err)
	}
	if err := Bandwidth("app", 100e6, phases); err != nil {
		t.Fatal(err)
	}
	if err := IngestComplete(Ingest{Sent: 4, Ingested: 4}); err != nil {
		t.Fatal(err)
	}
	if err := ForecastMatches("app", Forecast{OK: true, PeriodSec: 10, NextBurstSec: 21}, 20, 10.5, 100); err != nil {
		t.Fatal(err)
	}
	if err := BytesWritten(105_100_148_736, 3072, 3, 300_000, 38, 4096); err != nil {
		t.Fatal(err)
	}
	if err := LimiterShape(10, 0, 66, 4); err != nil {
		t.Fatal(err)
	}
	if err := SameText("fig", "a\nb\n", "a\nb\n"); err != nil {
		t.Fatal(err)
	}
}

func TestPerturbedRecordBFails(t *testing.T) {
	served := oracle.Sweep(stream())
	sent := stream()
	sent[1].Value *= 1 + 1e-6
	if Series("app", served, sent) == nil {
		t.Fatal("series check passed a series that disagrees with the records sent")
	}
	if Bandwidth("app", oracle.Max(served), sent) == nil {
		t.Fatal("bandwidth check passed a maximum that disagrees with the records sent")
	}
}

func TestDroppedRecordFails(t *testing.T) {
	sent := stream()
	served := oracle.Sweep(sent[:len(sent)-1])
	if Series("app", served, sent) == nil {
		t.Fatal("series check passed a series missing a record")
	}
	in := Ingest{Sent: 4, Ingested: 3}
	if IngestComplete(in) == nil || in.Failed() != 1 {
		t.Fatalf("ingest check passed a lost record (failed=%d)", in.Failed())
	}
	for _, in := range []Ingest{{Sent: 4, Ingested: 4, Dropped: 1}, {Sent: 4, Ingested: 4, DecodeErrors: 1}, {Sent: 4, Ingested: 4, Late: 1}} {
		if IngestComplete(in) == nil {
			t.Fatalf("ingest check passed %+v", in)
		}
	}
}

func TestSwappedSeriesPointFails(t *testing.T) {
	phases := stream()
	served := oracle.Sweep(phases)
	served[1].V, served[2].V = served[2].V, served[1].V
	if Series("app", served, phases) == nil {
		t.Fatal("series check passed swapped values")
	}
	served = oracle.Sweep(phases)
	served[1], served[2] = served[2], served[1]
	if Series("app", served, phases) == nil {
		t.Fatal("series check passed swapped points")
	}
}

func TestByteTotalOffByOneFails(t *testing.T) {
	for _, got := range []int64{105_100_148_735, 105_100_148_737} {
		if BytesWritten(got, 3072, 3, 300_000, 38, 4096) == nil {
			t.Fatalf("byte check passed %d", got)
		}
	}
}

func TestEmptyOrWrongForecastFails(t *testing.T) {
	for _, f := range []Forecast{
		{},         // empty
		{OK: true}, // no period
		{OK: true, PeriodSec: 10, NextBurstSec: 20}, // not after the query time
		{OK: true, PeriodSec: 5, NextBurstSec: 21},  // a harmonic, ten bins off
	} {
		if ForecastMatches("app", f, 20, 10, 100) == nil {
			t.Fatalf("forecast check passed %+v", f)
		}
	}
}

func TestLimiterShapeFails(t *testing.T) {
	for _, c := range [][4]float64{{0, 0, 66, 4}, {10, 5, 66, 4}, {10, 0, 20, 4}} {
		if LimiterShape(int64(c[0]), int64(c[1]), c[2], c[3]) == nil {
			t.Fatalf("limiter check passed %v", c)
		}
	}
}

func TestSameTextNamesTheLine(t *testing.T) {
	err := SameText("fig", "a\nb\nc\n", "a\nb\nd\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("got %v, want a difference at line 3", err)
	}
}
