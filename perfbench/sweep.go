package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"iobehind/internal/experiments"
	"iobehind/internal/region"
	"iobehind/internal/runner"
	"iobehind/internal/tmio"
	"iobehind/perfbench/check"
	"iobehind/perfbench/oracle"
)

// sweepFigs are the experiments of the quick-scale plan, one per distinct
// figure (2 and 6 render from the experiments of 1 and 5).
var sweepFigs = []string{"1", "3", "4", "5", "7", "8", "9", "10", "11", "13", "14", "faults", "trace"}

// sweepWorkers is the runner's pool size: one worker per core of the
// 2-core reference machine.
const sweepWorkers = 2

// sweepBench regenerates every figure at quick scale through a 2-worker
// runner with no cache: the user's "regenerate the figures" path. The
// seed picks the fault scenario of the "faults" figure.
type sweepBench struct {
	faultSeed int64
	plan      *experiments.Plan
	reference string // serial rendering of the plan, made in set-up

	// The last unit's outputs.
	results  []runner.Result
	outs     []experiments.Renderer
	rendered string
	pointDur []time.Duration // per point; traced units only
	runWall  time.Duration   // runner.Run wall time
	read     time.Duration   // Assemble + Render of every figure
	eq3      time.Duration   // region.Sweep over every report; traced units only
}

func newSweep(seed int64) workload { return &sweepBench{faultSeed: seed} }

// setup resolves the plan and renders it serially: the reference the
// 2-worker rendering must match byte for byte. A repeated set-up must
// render the same text.
func (b *sweepBench) setup(tr *tracer) error {
	plan, err := experiments.BuildPlan(nil, experiments.Quick, b.faultSeed)
	if err != nil {
		return err
	}
	id := tr.begin("runner.Run serial", 0, 0, nil)
	results, err := runner.Serial().Run(context.Background(), plan.Points)
	tr.end(id)
	if err != nil {
		return err
	}
	text, _, err := renderPlan(plan, results, nil, -1)
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	if b.reference != "" {
		if err := check.SameText("sweep-quick (serial set-ups)", text, b.reference); err != nil {
			return err
		}
	}
	b.plan, b.reference = plan, text
	return nil
}

// renderPlan assembles and renders every figure of the plan in order.
func renderPlan(plan *experiments.Plan, results []runner.Result, tr *tracer, parent int) (string, []experiments.Renderer, error) {
	var sb strings.Builder
	outs := make([]experiments.Renderer, len(plan.Entries))
	for i, e := range plan.Entries {
		id := tr.begin("experiments.Assemble+Render", parent, 0, map[string]any{"fig": e.Exp.Fig})
		out, err := e.Exp.Assemble(results[e.Offset : e.Offset+len(e.Exp.Points)])
		if err == nil {
			sb.WriteString(out.Render())
		}
		tr.end(id)
		if err != nil {
			return "", nil, fmt.Errorf("figure %s: %w", e.ID, err)
		}
		outs[i] = out
	}
	return sb.String(), outs, nil
}

func (b *sweepBench) unit(tr *tracer, u int) (unitStats, error) {
	points := b.plan.Points
	root := tr.begin("sweep", -1, 0, nil)
	t0 := time.Now()
	rs := tr.begin("runner.Run", root, 0, map[string]any{"workers": sweepWorkers})
	if tr != nil {
		points = b.timedPoints(tr, rs)
	}
	results, err := runner.New(runner.Options{Workers: sweepWorkers}).Run(context.Background(), points)
	tr.end(rs)
	t1 := time.Now()
	if err != nil {
		return unitStats{}, err
	}
	// A failed point makes its figure's Assemble fail; the failure is
	// counted by check, and the rendering stays empty.
	rendered, outs, _ := renderPlan(b.plan, results, tr, root)
	t2 := time.Now()
	tr.end(root)
	b.results, b.outs, b.rendered = results, outs, rendered
	b.runWall, b.read = t1.Sub(t0), t2.Sub(t1)
	if tr != nil {
		var reps []*tmio.Report
		for _, r := range results {
			if rep, ok := r.Value.(*tmio.Report); ok {
				reps = append(reps, rep)
			}
		}
		b.eq3 = sweepReports(tr, reps)
	}
	return unitStats{
		run:   t2.Sub(t0),
		reads: []time.Duration{t2.Sub(t1)},
		items: float64(len(points)),
		span:  t2.Sub(t0),
	}, nil
}

// timedPoints wraps every point's Run in a span on the lane of the worker
// running it, recording its duration.
func (b *sweepBench) timedPoints(tr *tracer, parent int) []runner.Point {
	lanes := make(chan int, sweepWorkers)
	for i := 1; i <= sweepWorkers; i++ {
		lanes <- i
	}
	b.pointDur = make([]time.Duration, len(b.plan.Points))
	points := make([]runner.Point, len(b.plan.Points))
	for i, p := range b.plan.Points {
		i, run := i, p.Run
		p.Run = func(ctx context.Context) (any, error) {
			lane := <-lanes
			defer func() { lanes <- lane }()
			id := tr.begin("experiments.point", parent, lane, map[string]any{"key": b.plan.Points[i].Key})
			t0 := time.Now()
			v, err := run(ctx)
			b.pointDur[i] = time.Since(t0)
			tr.end(id)
			return v, err
		}
		points[i] = p
	}
	return points
}

// sweepReports times region.Sweep over each report's rank phases, one
// span per call, after the unit's timed region: the Eq. 3 layer alone.
func sweepReports(tr *tracer, reps []*tmio.Report) time.Duration {
	var total time.Duration
	for _, rep := range reps {
		id := tr.begin("region.Sweep", -1, 0, nil)
		t0 := time.Now()
		region.Sweep("B", rep.BPhases)
		total += time.Since(t0)
		tr.end(id)
	}
	return total
}

// phasesOf converts a report's rank phases for the oracle.
func phasesOf(phs []region.Phase) []oracle.Phase {
	out := make([]oracle.Phase, len(phs))
	for i, ph := range phs {
		out[i] = oracle.Phase{Start: int64(ph.Start), End: int64(ph.End), Value: ph.Value}
	}
	return out
}

func (b *sweepBench) check(u int) outcome {
	o := outcome{attempted: int64(len(b.results))}
	for _, r := range b.results {
		if r.Err != nil {
			o.failed++
			if o.err == nil {
				o.err = fmt.Errorf("point %s: %w", r.Key, r.Err)
			}
		}
	}
	if o.err != nil {
		return o
	}
	fail := func(err error) outcome {
		if o.err == nil {
			o.err = err
		}
		return o
	}
	if err := check.SameText("sweep-quick (2 workers vs serial)", b.rendered, b.reference); err != nil {
		return fail(err)
	}
	for _, r := range b.results {
		if rep, ok := r.Value.(*tmio.Report); ok {
			if err := check.Bandwidth(r.Key, rep.RequiredBandwidth, phasesOf(rep.BPhases)); err != nil {
				return fail(err)
			}
		}
	}
	for _, out := range b.outs {
		switch res := out.(type) {
		case *experiments.Fig04Result:
			phases := phasesOf(res.Phases)
			if err := check.Bandwidth("fig 4", 100e6, phases); err != nil {
				return fail(err)
			}
			if want := "B = max B_r = 100.00 MB/s"; !strings.Contains(res.Render(), want) {
				return fail(fmt.Errorf("fig 4: rendering lacks %q", want))
			}
		case *experiments.FigFaultsResult:
			if err := res.Check(); err != nil {
				return fail(fmt.Errorf("faults figure: %w", err))
			}
		}
	}
	return o
}

func (b *sweepBench) layers(put func(string, float64)) {
	var busy time.Duration
	for _, e := range b.plan.Entries {
		var sum time.Duration
		for i := range e.Exp.Points {
			sum += b.pointDur[e.Offset+i]
		}
		put("experiments.point_s."+e.Exp.Fig, seconds(sum))
		busy += sum
	}
	put("runner.busy_ratio", seconds(busy)/(sweepWorkers*seconds(b.runWall)))
	put("experiments.assemble_ms", millis(b.read))
	var syncOps, asyncOps, phases int
	for _, r := range b.results {
		if rep, ok := r.Value.(*tmio.Report); ok {
			syncOps += rep.SyncOps
			asyncOps += rep.AsyncOps
			phases += len(rep.BPhases)
		}
	}
	put("tmio.sync_ops", float64(syncOps))
	put("tmio.async_ops", float64(asyncOps))
	put("tmio.phases", float64(phases))
	put("region.sweep_ms", millis(b.eq3))
}
