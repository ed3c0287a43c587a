package oracle

import (
	"math/rand"
	"testing"
)

const sec = int64(1e9)

// fig4 is the paper's Fig. 4 worked example: three ranks whose phases
// overlap into five regions, peaking at 30 + 20 + 50 = 100 MB/s.
var fig4 = []Phase{
	{Start: 1 * sec, End: 6 * sec, Value: 30e6},
	{Start: 2 * sec, End: 8 * sec, Value: 20e6},
	{Start: 3 * sec, End: 10 * sec, Value: 50e6},
}

func TestFig4WorkedExample(t *testing.T) {
	got := Sweep(fig4)
	want := []Point{
		{1 * sec, 30e6}, {2 * sec, 50e6}, {3 * sec, 100e6},
		{6 * sec, 70e6}, {8 * sec, 50e6}, {10 * sec, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d points %v, want %d (5 regions and the closing zero)", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if b := Required(fig4); b != 100e6 {
		t.Fatalf("required bandwidth %g, want 100 MB/s", b)
	}
}

func TestArrivalOrderDoesNotMatter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	phases := make([]Phase, 500)
	for i := range phases {
		s := rng.Int63n(50 * sec)
		phases[i] = Phase{Start: s, End: s + 1 + rng.Int63n(5*sec), Value: rng.Float64() * 1e9}
	}
	want := Sweep(phases)
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(phases), func(i, j int) { phases[i], phases[j] = phases[j], phases[i] })
		got := Sweep(phases)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d points, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d point %d: %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestEmptyAndInvertedPhasesIgnored(t *testing.T) {
	if s := Sweep([]Phase{{Start: 5, End: 5, Value: 1}, {Start: 7, End: 3, Value: 1}}); len(s) != 0 {
		t.Fatalf("got %v, want an empty series", s)
	}
	if Required(nil) != 0 {
		t.Fatal("empty input must need no bandwidth")
	}
}

func TestNanosOf(t *testing.T) {
	for _, c := range []struct {
		sec  float64
		want int64
	}{{-1, 0}, {0, 0}, {1.5, 1_500_000_000}, {2e-9, 2}} {
		if got := NanosOf(c.sec); got != c.want {
			t.Errorf("NanosOf(%g) = %d, want %d", c.sec, got, c.want)
		}
	}
}
