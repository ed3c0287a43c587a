package main

import (
	"encoding/json"
	"fmt"
	"time"

	"iobehind"
	"iobehind/internal/des"
	"iobehind/internal/pfs"
	"iobehind/perfbench/check"
)

// The hacc-contended inputs: a slice of the paper's Fig. 13 — HACC-IO
// with 300k particles per rank and fixed 5 s phases under the calibrated
// storm agent — at 3072 ranks for 3 loops.
const (
	haccRanks       = 3072
	haccLoops       = 3
	haccParticles   = 300_000
	haccBytesPer    = 38
	haccHeaderBytes = 4096
	// haccWarmRanks sizes the set-up's reduced pair.
	haccWarmRanks = 384
	// haccRepeats is how many more times each finished simulation is
	// asked for its report after the timed unit: query_ms is the median
	// of these calls. The first call is part of run_s.
	haccRepeats = 4
)

func haccConfig() iobehind.HaccConfig {
	return iobehind.HaccConfig{
		Loops:            haccLoops,
		ParticlesPerRank: haccParticles,
		BytesPerParticle: haccBytesPer,
		HeaderBytes:      haccHeaderBytes,
		FixedPhase:       5 * iobehind.Second,
	}
}

// haccStrategies are the two runs of a unit: the adaptive limiter and no
// limit.
var haccStrategies = []struct {
	name  string
	strat iobehind.StrategyConfig
}{
	{"adaptive", iobehind.StrategyConfig{Strategy: iobehind.Adaptive, Tol: 1.1}},
	{"no-limit", iobehind.StrategyConfig{}},
}

func haccOptions(ranks int, seed int64, strat iobehind.StrategyConfig) iobehind.Options {
	return iobehind.Options{
		Ranks:    ranks,
		Seed:     seed,
		Strategy: strat,
		// The calibrated storm agent of the paper-shape runs: server
		// queuing that makes bursts visible and the rare scheduling
		// hiccups of unpaced I/O threads.
		Agent: iobehind.AgentConfig{
			HiccupProb:          6e-4,
			HiccupMean:          150 * iobehind.Millisecond,
			QueueLatencyPerFlow: 10 * iobehind.Microsecond,
		},
		Tracer: iobehind.TracerConfig{DisableOverhead: true},
	}
}

// haccRun is one simulation of a unit and its layer figures.
type haccRun struct {
	sim                       *iobehind.Sim
	rep, again                *iobehind.Report // the first and a repeated report
	err                       error
	newSim, world, report     time.Duration
	des                       des.Stats
	reallocations, flowVisits int64
	requests, hiccups         int64
}

// haccBench simulates the adaptive and the unlimited run per unit, each
// assembling its stack, simulating and reporting.
type haccBench struct {
	seed int64
	runs [2]haccRun
	ref  [2]string     // fingerprints of unit 0's reports
	eq3  time.Duration // region.Sweep over both reports; traced units only
}

func newHacc(seed int64) workload { return &haccBench{seed: seed} }

// simulate assembles, runs and reports one simulation. With a tracer it
// records spans and the per-layer counts, and installs the pfs observer.
func simulate(tr *tracer, parent int, ranks int, seed int64, strat iobehind.StrategyConfig, name string) haccRun {
	var run haccRun
	root := tr.begin("hacc "+name, parent, 0, map[string]any{"ranks": ranks})
	defer tr.end(root)

	t0 := time.Now()
	id := tr.begin("iobehind.NewSim", root, 0, nil)
	sim := iobehind.NewSim(haccOptions(ranks, seed, strat))
	tr.end(id)
	if tr != nil {
		sim.FS.SetObserver(func(_ des.Time, _ pfs.Class, flows []*pfs.Flow) {
			run.reallocations++
			run.flowVisits += int64(len(flows))
		})
	}
	main := iobehind.HaccMain(sim.IO, haccConfig())
	t1 := time.Now()
	id = tr.begin("mpi.World.Run", root, 0, nil)
	run.err = sim.World.Run(main)
	tr.end(id)
	t2 := time.Now()
	if run.err != nil {
		return run
	}
	id = tr.begin("tmio.Tracer.Report", root, 0, nil)
	run.rep = sim.Tracer.Report()
	tr.end(id)
	t3 := time.Now()
	run.sim = sim
	run.newSim, run.world, run.report = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	run.des = sim.Engine.Stats()
	if tr != nil {
		for r := 0; r < ranks; r++ {
			a := sim.IO.Agent(r)
			run.requests += int64(a.RequestsDone())
			run.hiccups += int64(a.Hiccups())
		}
	}
	return run
}

// setup runs a reduced pair (384 ranks) and checks its written bytes: a
// warm-up of the allocator and goroutine stacks, so the first measured
// unit is not an outlier.
func (b *haccBench) setup(tr *tracer) error {
	for i, s := range haccStrategies {
		run := simulate(tr, 0, haccWarmRanks, b.seed+int64(i), s.strat, "warm-up "+s.name)
		if run.err != nil {
			return run.err
		}
		if err := check.BytesWritten(run.rep.TotalBytes[pfs.Write], haccWarmRanks, haccLoops,
			haccParticles, haccBytesPer, haccHeaderBytes); err != nil {
			return err
		}
	}
	return nil
}

func (b *haccBench) unit(tr *tracer, u int) (unitStats, error) {
	root := tr.begin("hacc-contended", -1, 0, nil)
	t0 := time.Now()
	for i, s := range haccStrategies {
		b.runs[i] = simulate(tr, root, haccRanks, b.seed+int64(i), s.strat, s.name)
	}
	elapsed := time.Since(t0)
	tr.end(root)
	if tr != nil && b.runs[0].rep != nil && b.runs[1].rep != nil {
		b.eq3 = sweepReports(tr, []*iobehind.Report{b.runs[0].rep, b.runs[1].rep})
	}
	st := unitStats{run: elapsed, span: elapsed}
	m0 := readMem()
	for i := range b.runs {
		r := &b.runs[i]
		if r.rep == nil {
			continue
		}
		st.items += float64(len(r.rep.BPhases))
		for k := 0; k < haccRepeats; k++ {
			t := time.Now()
			r.again = r.sim.Tracer.Report()
			st.reads = append(st.reads, time.Since(t))
		}
		r.sim = nil
	}
	st.untimedAlloc = readMem().totalAlloc - m0.totalAlloc
	return st, nil
}

// fingerprint identifies a report: its JSON fields and its rank phases.
func fingerprint(rep *iobehind.Report) string {
	js, _ := json.Marshal(rep) // a Report always marshals
	phases, _ := json.Marshal(rep.BPhases)
	return string(js) + string(phases)
}

func (b *haccBench) check(u int) outcome {
	o := outcome{attempted: int64(len(b.runs))}
	for i := range b.runs {
		r := &b.runs[i]
		if r.err != nil {
			o.failed++
			if o.err == nil {
				o.err = fmt.Errorf("%s: %w", haccStrategies[i].name, r.err)
			}
		}
	}
	if o.err != nil {
		return o
	}
	errs := []error{}
	for i, r := range b.runs {
		name := haccStrategies[i].name
		errs = append(errs,
			check.BytesWritten(r.rep.TotalBytes[pfs.Write], haccRanks, haccLoops, haccParticles, haccBytesPer, haccHeaderBytes),
			check.Bandwidth(name, r.rep.RequiredBandwidth, phasesOf(r.rep.BPhases)))
		fp := fingerprint(r.rep)
		if r.again != nil && fingerprint(r.again) != fp {
			errs = append(errs, fmt.Errorf("%s: a repeated Tracer.Report differs from the first", name))
		}
		if u == 0 {
			b.ref[i] = fp
		} else if fp != b.ref[i] {
			errs = append(errs, fmt.Errorf("%s: unit %d's report differs from unit 0's (same seed)", name, u))
		}
	}
	a, n := b.runs[0].rep, b.runs[1].rep
	errs = append(errs, check.LimiterShape(int64(a.FirstLimitAt), int64(n.FirstLimitAt),
		a.Distribution().ExploitTotal(), n.Distribution().ExploitTotal()))
	for _, err := range errs {
		if err != nil {
			o.err = err
			break
		}
	}
	return o
}

func (b *haccBench) layers(put func(string, float64)) {
	var newSim, world, report time.Duration
	var events, procs, maxHeap, reallocs, visits, requests, hiccups, syncOps, asyncOps, phases float64
	for _, r := range b.runs {
		newSim += r.newSim
		world += r.world
		report += r.report
		events += float64(r.des.EventsRun)
		procs += float64(r.des.Procs)
		maxHeap = max(maxHeap, float64(r.des.MaxHeap))
		reallocs += float64(r.reallocations)
		visits += float64(r.flowVisits)
		requests += float64(r.requests)
		hiccups += float64(r.hiccups)
		syncOps += float64(r.rep.SyncOps)
		asyncOps += float64(r.rep.AsyncOps)
		phases += float64(len(r.rep.BPhases))
	}
	put("iobehind.newsim_ms", millis(newSim))
	put("mpi.run_s", seconds(world))
	put("tmio.report_ms", millis(report))
	put("des.events", events)
	put("des.procs", procs)
	put("des.max_heap", maxHeap)
	put("des.events_per_s", events/seconds(world))
	put("pfs.reallocations", reallocs)
	put("pfs.flow_visits", visits)
	if reallocs > 0 {
		put("pfs.flows_per_reallocation", visits/reallocs)
	}
	put("adio.requests", requests)
	put("adio.hiccups", hiccups)
	put("tmio.sync_ops", syncOps)
	put("tmio.async_ops", asyncOps)
	put("tmio.phases", phases)
	put("region.sweep_ms", millis(b.eq3))
}
