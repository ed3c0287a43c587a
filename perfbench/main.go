// Command perfbench is the repository's end-to-end benchmark. It drives the
// program through its public entry points — the iobehind facade, the
// experiment plan with the sweep runner, and the telemetry gateway fed
// binary frames — and prints, as its last line, one JSON object with the
// outputs' check result, the attempted and failed operation counts, and
// the metrics:
//
//	bash perfbench/run.sh --workload sweep-quick --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 runs three untraced units of work and one traced unit, writes
// the traced unit's spans as Chrome trace-event JSON (--trace-out), prints
// a per-layer table and reports the per-layer metrics.
// --steady N runs the workload N times, in fresh processes with seeds
// seed … seed+N-1, and prints each end-to-end metric's median, quartiles
// and spread against its bound in BENCHMARK.json.
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// unitStats is what one unit of work measured.
type unitStats struct {
	run   time.Duration   // wall time of the unit
	reads []time.Duration // latencies of reading the unit's results
	items float64         // items the unit processed
	span  time.Duration   // time over which the items were processed
	// untimedAlloc is what the unit allocated outside its timed region,
	// sampling reads; it is not charged to the unit.
	untimedAlloc uint64
}

// outcome is the operation accounting of one checked unit.
type outcome struct {
	attempted, failed int64
	err               error // first output check that failed
}

// workload is one benchmark workload. setup may be called several times
// and leaves the workload ready to run units; unit runs one unit of work
// (tr is nil in the untraced run); check verifies the last unit's outputs
// outside the timed region; layers reports the per-layer metrics of the
// last unit, which ran traced.
type workload interface {
	setup(tr *tracer) error
	unit(tr *tracer, u int) (unitStats, error)
	check(u int) outcome
	layers(put func(name string, v float64))
}

var workloads = map[string]func(seed int64) workload{
	"sweep-quick":    newSweep,
	"hacc-contended": newHacc,
	"live-path":      newLive,
}

// setups is how many times a run sets its workload up; setup_s is the
// median. The first set-up precedes the first unit and the others are
// spread evenly over the measured loop, so that setup_s samples the same
// stretch of machine time as the units do.
const setups = 15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports.
var endToEnd = []struct{ name, unit string }{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"query_ms", "ms"},
	{"items_per_s", "1/s"},
	{"alloc_mb", "MB"},
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: sweep-quick, hacc-contended or live-path")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Float64("seconds", 10, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 runs one traced unit and reports per-layer metrics")
	traceOut := flag.String("trace-out", "", "trace-event JSON path (default .bench_build/perfbench-trace-<workload>.json)")
	steady := flag.Int("steady", 0, "run the workload this many times in fresh processes and print each metric's spread")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *steady > 0 {
		return steadiness(*name, *seed, *secs, *steady)
	}
	w := mk(*seed)
	var res result
	var err error
	if *trace == 1 {
		out := *traceOut
		if out == "" {
			out = ".bench_build/perfbench-trace-" + *name + ".json"
		}
		res, err = traced(w, out)
	} else {
		res, err = measure(w, time.Duration(*secs*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// tally accumulates unit outcomes; the run is correct while no check failed.
type tally struct {
	attempted, failed int64
	err               error
}

func (t *tally) add(o outcome) {
	t.attempted += o.attempted
	t.failed += o.failed
	if o.err != nil && t.err == nil {
		t.err = o.err
	}
}

func (t *tally) result(metrics map[string]metric) result {
	if t.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %v\n", t.err)
	}
	return result{Correct: t.err == nil, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// measure sets the workload up, runs units until the budget is spent (at
// least one), setting the workload up again at even steps of the budget,
// and reports medians over the units and the set-ups.
func measure(w workload, budget time.Duration) (result, error) {
	var setupS []float64
	setUp := func() error {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(nil); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, seconds(time.Since(t0)))
		return nil
	}
	if err := setUp(); err != nil {
		return result{}, err
	}
	var runS, readMs, rate, allocMB []float64
	var t tally
	start := time.Now()
	for u := 0; u == 0 || time.Since(start) < budget; u++ {
		// Each unit starts from a collected heap, so one unit's garbage
		// is not charged to the next.
		runtime.GC()
		m0 := readMem()
		st, err := w.unit(nil, u)
		m1 := readMem()
		if err != nil {
			return result{}, fmt.Errorf("unit %d: %w", u, err)
		}
		t.add(w.check(u))
		runS = append(runS, seconds(st.run))
		for _, d := range st.reads {
			readMs = append(readMs, millis(d))
		}
		rate = append(rate, st.items/seconds(st.span))
		allocMB = append(allocMB, float64(m1.totalAlloc-m0.totalAlloc-st.untimedAlloc)/1e6)
		if n := len(setupS); n < setups && time.Since(start) >= budget*time.Duration(n)/setups {
			if err := setUp(); err != nil {
				return result{}, err
			}
		}
	}
	for len(setupS) < setups {
		if err := setUp(); err != nil {
			return result{}, err
		}
	}
	values := map[string]float64{
		"run_s":       median(runS),
		"setup_s":     median(setupS),
		"query_ms":    median(readMs),
		"items_per_s": median(rate),
		"alloc_mb":    median(allocMB),
	}
	metrics := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return t.result(metrics), nil
}

// tracedBaseline is how many untraced units the traced run measures
// before its traced unit; the tracing overhead is taken against their
// median.
const tracedBaseline = 3

// traced runs tracedBaseline untraced units and then one unit with spans
// around every layer call, writes the spans to out, prints the per-layer
// table, and reports the per-layer metrics: the traced unit's layer
// figures, the untraced units' garbage-collector work, and the tracing
// overhead.
func traced(w workload, out string) (result, error) {
	tr := newTracer()
	setupSpan := tr.begin("setup", -1, 0, nil)
	if err := w.setup(tr); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	tr.end(setupSpan)
	var t tally
	var plainS, gcCycles, gcPauseMs []float64
	for u := 0; u < tracedBaseline; u++ {
		runtime.GC()
		m0 := readMem()
		st, err := w.unit(nil, u)
		m1 := readMem()
		if err != nil {
			return result{}, fmt.Errorf("untraced unit %d: %w", u, err)
		}
		t.add(w.check(u))
		plainS = append(plainS, seconds(st.run))
		gcCycles = append(gcCycles, float64(m1.numGC-m0.numGC))
		gcPauseMs = append(gcPauseMs, float64(m1.pauseNs-m0.pauseNs)/1e6)
	}
	tr.setUnit(tracedBaseline)
	runtime.GC()
	withSpans, err := w.unit(tr, tracedBaseline)
	if err != nil {
		return result{}, fmt.Errorf("traced unit: %w", err)
	}
	t.add(w.check(tracedBaseline))
	plain := median(plainS)

	values := make(map[string]float64)
	w.layers(func(name string, v float64) { values[name] = v })
	values["runtime.gc_cycles"] = median(gcCycles)
	values["runtime.gc_pause_ms"] = median(gcPauseMs)
	values["trace.overhead_pct"] = 100 * (seconds(withSpans.run)/plain - 1)
	values["runtime.peak_rss_mb"] = peakRSSBytes() / 1e6

	if err := tr.writeChrome(out); err != nil {
		return result{}, err
	}
	printTable(os.Stdout, tr.table())
	fmt.Printf("trace: %s (%d spans); untraced unit median %.3f s, traced unit %.3f s\n",
		out, len(tr.spans), plain, seconds(withSpans.run))

	metrics := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	for name := range values {
		if _, ok := metrics[name]; !ok {
			return result{}, fmt.Errorf("layer metric %q is not declared", name)
		}
	}
	return t.result(metrics), nil
}

// perLayer lists the per-layer metrics every traced run reports; a layer
// that a workload bypasses reports 0.
var perLayer = func() []struct{ name, unit string } {
	list := []struct{ name, unit string }{
		{"iobehind.newsim_ms", "ms"},
		{"mpi.run_s", "s"},
		{"tmio.report_ms", "ms"},
		{"des.events", "count"},
		{"des.procs", "count"},
		{"des.max_heap", "count"},
		{"des.events_per_s", "1/s"},
		{"pfs.reallocations", "count"},
		{"pfs.flow_visits", "count"},
		{"pfs.flows_per_reallocation", "count"},
		{"adio.requests", "count"},
		{"adio.hiccups", "count"},
		{"tmio.sync_ops", "count"},
		{"tmio.async_ops", "count"},
		{"tmio.phases", "count"},
		{"region.sweep_ms", "ms"},
		{"runner.busy_ratio", "ratio"},
		{"experiments.assemble_ms", "ms"},
		{"tmio.encode_ns", "ns"},
		{"tmio.frames", "count"},
		{"gateway.backlog_max", "count"},
		{"gateway.drain_ms", "ms"},
		{"region.series_ms", "ms"},
		{"gateway.series_http_ms", "ms"},
		{"gateway.series_bytes", "B"},
		{"ftio.predict_ms", "ms"},
		{"gateway.predict_http_ms", "ms"},
		{"gateway.scrape_ms", "ms"},
		{"gateway.appinfo_ms", "ms"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"runtime.peak_rss_mb", "MB"},
		{"trace.overhead_pct", "%"},
	}
	for _, fig := range sweepFigs {
		list = append(list, struct{ name, unit string }{"experiments.point_s." + fig, "s"})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	return list
}()
