package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"time"

	"iobehind"
	"iobehind/internal/des"
	"iobehind/internal/gateway"
	"iobehind/internal/tmio"
	"iobehind/perfbench/check"
	"iobehind/perfbench/oracle"
)

// liveAppSpec is one application of the replayed telemetry: a small traced
// simulation whose record stream is copied liveCopies times, each copy
// shifted by the app's replication period, mult × the span of one copy.
// The (workload, period) pairs are ones whose copies FTIO separates
// cleanly at the gateway's default 128 bins at every query round.
type liveAppSpec struct {
	id   string
	seed int64
	mult float64
	main func(sim *iobehind.Sim) func(*iobehind.Rank)
}

func haccApp(loops int) func(*iobehind.Sim) func(*iobehind.Rank) {
	return func(sim *iobehind.Sim) func(*iobehind.Rank) {
		return iobehind.HaccMain(sim.IO, iobehind.HaccConfig{Loops: loops, ParticlesPerRank: 100_000})
	}
}

func wacommApp(iterations int) func(*iobehind.Sim) func(*iobehind.Rank) {
	return func(sim *iobehind.Sim) func(*iobehind.Rank) {
		return iobehind.WacommMain(sim.IO, iobehind.WacommConfig{Particles: 400_000, Iterations: iterations})
	}
}

func iorApp(sim *iobehind.Sim) func(*iobehind.Rank) {
	return iobehind.IorMain(sim.IO, iobehind.IorConfig{
		Async: true, Segments: 1, BlockSize: 16 << 20, ComputeBetween: 200 * iobehind.Millisecond,
	})
}

var liveApps = []liveAppSpec{
	{"hacc1-p1.25", 1, 1.25, haccApp(1)},
	{"hacc2-p1.25", 2, 1.25, haccApp(2)},
	{"hacc2-p3", 21, 3, haccApp(2)},
	{"hacc3-p4", 3, 4, haccApp(3)},
	{"hacc4-p1.5", 4, 1.5, haccApp(4)},
	{"wacomm3-p1.5", 5, 1.5, wacommApp(3)},
	{"wacomm5-p1.25", 7, 1.25, wacommApp(5)},
	{"ior1-p1.25", 8, 1.25, iorApp},
}

const (
	liveRanks  = 192 // ranks of each app's base simulation
	liveCopies = 20  // copies of each base stream
	// liveFrameRecords is the batch one binary frame carries.
	liveFrameRecords = 256
	// liveQueueDepth is the gateway's per-connection queue. The producer
	// keeps sent − ingested within it, so no record can be dropped.
	liveQueueDepth = 1 << 14
	// livePoll is the pacing poll interval: short against the ~0.1 s the
	// gateway needs to drain a full queue, so it never runs dry.
	livePoll = 200 * time.Microsecond
	// liveStall bounds a wait in which the gateway ingests nothing.
	liveStall = 30 * time.Second
)

// liveRounds are the query points, in copies of every app streamed; the
// last is the final round.
var liveRounds = []int{5, 10, 15, 20}

// liveApp is one app of the built stream.
type liveApp struct {
	id     string
	period float64 // replication period, s
}

// liveStream is the replayed input: the records in send order and the
// stream length at each query round.
type liveStream struct {
	apps    []liveApp
	records []tmio.StreamRecord
	rounds  []int
}

// buildStream copies each base stream liveCopies times. The seed places
// each app's first copy at an offset within its period and shuffles the
// arrival order of the records within each copy round, across apps.
func buildStream(bases [][]tmio.StreamRecord, seed int64) liveStream {
	rng := rand.New(rand.NewSource(seed))
	var s liveStream
	type layout struct {
		shift0, period float64
		phases         int
	}
	lays := make([]layout, len(bases))
	perCopy := 0
	for i, recs := range bases {
		perCopy += len(recs)
		lo, hi := math.Inf(1), math.Inf(-1)
		phases := 0
		for _, r := range recs {
			lo = min(lo, r.TsSec)
			hi = max(hi, r.TeSec)
			if r.TteSec > 0 {
				lo = min(lo, r.TtsSec)
				hi = max(hi, r.TteSec)
			}
			phases = max(phases, r.Phase+1)
		}
		period := liveApps[i].mult * (hi - lo)
		lays[i] = layout{shift0: rng.Float64()*period - lo, period: period, phases: phases}
		s.apps = append(s.apps, liveApp{id: liveApps[i].id, period: period})
	}
	s.records = make([]tmio.StreamRecord, 0, liveCopies*perCopy)
	round := 0
	for k := 0; k < liveCopies; k++ {
		start := len(s.records)
		for i, recs := range bases {
			shift := lays[i].shift0 + float64(k)*lays[i].period
			for _, r := range recs {
				r.TsSec += shift
				r.TeSec += shift
				if r.TteSec > 0 {
					r.TtsSec += shift
					r.TteSec += shift
				}
				r.Phase += k * lays[i].phases
				s.records = append(s.records, r)
			}
		}
		chunk := s.records[start:]
		rng.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
		if round < len(liveRounds) && k+1 == liveRounds[round] {
			s.rounds = append(s.rounds, len(s.records))
			round++
		}
	}
	return s
}

// liveTelemetry runs one app's base simulation into an in-memory sink.
func liveTelemetry(spec liveAppSpec) ([]tmio.StreamRecord, error) {
	sim := iobehind.NewSim(iobehind.Options{
		Ranks:    liveRanks,
		Seed:     spec.seed,
		Strategy: iobehind.StrategyConfig{Strategy: iobehind.UpOnly, Tol: 1.1},
		Tracer:   iobehind.TracerConfig{StreamID: spec.id},
	})
	sink := &tmio.CollectSink{}
	sim.Tracer.SetSink(sink)
	if _, err := sim.Run(spec.main(sim)); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.id, err)
	}
	if err := sim.Tracer.SinkErr(); err != nil {
		return nil, fmt.Errorf("%s: sink: %w", spec.id, err)
	}
	return sink.Records, nil
}

// reply is one HTTP response as the client read it. The body is kept
// only in the unit whose replies are checked in full; later units keep
// its digest.
type reply struct {
	status int
	err    error
	took   time.Duration
	size   int
	digest [32]byte
	body   []byte
}

// replay is everything one stream-and-query replay observed.
type replay struct {
	series, predict [][]reply // [round][app]
	scrape          []reply   // [round]
	now             [][]float64
	final           gateway.Stats
	sent            int64
	stalled         bool

	ingest, encode, probes      time.Duration
	frames                      int
	backlogMax                  int64
	drains                      []time.Duration
	inSeries, inPredict, inInfo []time.Duration
}

// liveBench streams the telemetry of 8 apps as binary frames over one
// loopback connection into a fresh gateway and, at fixed ingest-progress
// points, queries every app's series and forecast over one keep-alive
// HTTP connection, one request at a time.
type liveBench struct {
	seed   int64
	stream liveStream
	last   *replay
	ref    [][32]byte // unit 0's response digests
}

func newLive(seed int64) workload { return &liveBench{seed: seed} }

// setup generates the base telemetry and builds the replayed stream.
func (b *liveBench) setup(tr *tracer) error {
	bases := make([][]tmio.StreamRecord, len(liveApps))
	for i, spec := range liveApps {
		id := tr.begin("iobehind.Sim.Run (telemetry)", 0, 0, map[string]any{"app": spec.id})
		recs, err := liveTelemetry(spec)
		tr.end(id)
		if err != nil {
			return err
		}
		bases[i] = recs
	}
	b.stream = buildStream(bases, b.seed)
	return nil
}

// gatewayUnderTest is one gateway with its ingest and HTTP listeners and
// the benchmark's two connections to it.
type gatewayUnderTest struct {
	srv    *gateway.Server
	hs     *http.Server
	conn   net.Conn
	client *http.Client
	base   string
	served chan error
	buf    bytes.Buffer // response bodies are read into it
}

func startGateway() (*gatewayUnderTest, error) {
	g := &gatewayUnderTest{
		srv:    gateway.New(gateway.Config{QueueDepth: liveQueueDepth}),
		served: make(chan error, 2),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		return nil, err
	}
	g.hs = &http.Server{Handler: g.srv.Handler()}
	go func() { g.served <- g.srv.Serve(ln) }()
	go func() { g.served <- g.hs.Serve(hln) }()
	g.base = "http://" + hln.Addr().String()
	g.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
	if g.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		g.stop()
		return nil, err
	}
	return g, nil
}

// stop closes the connections, shuts both servers down and waits for
// their serve loops to return.
func (g *gatewayUnderTest) stop() error {
	if g.conn != nil {
		g.conn.Close()
	}
	g.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := []error{g.srv.Shutdown(ctx), g.hs.Shutdown(ctx)}
	for i := 0; i < 2; i++ {
		if err := <-g.served; err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// get issues one query and reads its whole body; the latency ends when
// the last byte is read.
func (g *gatewayUnderTest) get(path string, keep bool) reply {
	t0 := time.Now()
	resp, err := g.client.Get(g.base + path)
	if err != nil {
		return reply{err: err, took: time.Since(t0)}
	}
	g.buf.Reset()
	_, err = g.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	q := reply{status: resp.StatusCode, err: err, took: time.Since(t0), size: g.buf.Len()}
	q.digest = sha256.Sum256(g.buf.Bytes())
	if keep {
		q.body = bytes.Clone(g.buf.Bytes())
	}
	return q
}

// ingested is the number of records that left the gateway's queues:
// aggregated or dropped.
func (g *gatewayUnderTest) ingested() int64 {
	st := g.srv.Stats()
	return st.Ingested + st.Dropped
}

// waitBelow polls until at most limit records are in flight. It returns
// false when the gateway made no progress for liveStall.
func (g *gatewayUnderTest) waitBelow(sent, limit int64, done *int64) bool {
	last, since := *done, time.Now()
	for sent-*done > limit {
		time.Sleep(livePoll)
		if *done = g.ingested(); *done != last {
			last, since = *done, time.Now()
		} else if time.Since(since) > liveStall {
			return false
		}
	}
	return true
}

func (b *liveBench) unit(tr *tracer, u int) (unitStats, error) {
	s := &b.stream
	rp := &replay{}
	root := tr.begin("live-path replay", -1, 0, nil)
	t0 := time.Now()
	id := tr.begin("gateway.New+Serve", root, 0, nil)
	g, err := startGateway()
	tr.end(id)
	if err != nil {
		return unitStats{}, err
	}
	var buf []byte
	var done int64
	lastTe := make([]float64, len(s.apps))
	appIndex := make(map[string]int, len(s.apps))
	for i, a := range s.apps {
		appIndex[a.id] = i
	}
	for r, end := range s.rounds {
		seg := tr.begin("ingest round", root, 0, map[string]any{"round": r})
		segStart := time.Now()
		for rp.sent < int64(end) && !rp.stalled {
			batch := s.records[rp.sent:min(int(rp.sent)+liveFrameRecords, end)]
			for _, rec := range batch {
				i := appIndex[rec.App]
				lastTe[i] = max(lastTe[i], rec.TeSec)
			}
			id := tr.begin("tmio.AppendFrame", seg, 0, nil)
			te := time.Now()
			buf, err = tmio.AppendFrame(buf[:0], batch)
			rp.encode += time.Since(te)
			tr.end(id)
			if err != nil {
				g.stop()
				return unitStats{}, err
			}
			id = tr.begin("credit wait", seg, 0, nil)
			rp.stalled = !g.waitBelow(rp.sent+int64(len(batch)), liveQueueDepth, &done)
			tr.end(id)
			id = tr.begin("conn.Write", seg, 0, nil)
			_, err = g.conn.Write(buf)
			tr.end(id)
			if err != nil {
				g.stop()
				return unitStats{}, fmt.Errorf("ingest write: %w", err)
			}
			rp.sent += int64(len(batch))
			rp.frames++
			rp.backlogMax = max(rp.backlogMax, rp.sent-done)
		}
		lastWrite := time.Now()
		id := tr.begin("gateway drain", seg, 0, nil)
		rp.stalled = rp.stalled || !g.waitBelow(rp.sent, 0, &done)
		tr.end(id)
		now := time.Now()
		rp.drains = append(rp.drains, now.Sub(lastWrite))
		rp.ingest += now.Sub(segStart)
		tr.end(seg)

		q := tr.begin("query round", root, 0, map[string]any{"round": r})
		series := make([]reply, len(s.apps))
		predict := make([]reply, len(s.apps))
		for i, a := range s.apps {
			id := tr.begin("GET /apps/{id}/series", q, 0, map[string]any{"app": a.id})
			series[i] = g.get("/apps/"+a.id+"/series", u == 0)
			tr.end(id)
			id = tr.begin("GET /apps/{id}/predict", q, 0, map[string]any{"app": a.id})
			predict[i] = g.get("/apps/"+a.id+"/predict?now="+strconv.FormatFloat(lastTe[i], 'g', -1, 64), u == 0)
			tr.end(id)
		}
		id = tr.begin("GET /metrics", q, 0, nil)
		rp.scrape = append(rp.scrape, g.get("/metrics", u == 0))
		tr.end(id)
		if tr != nil {
			t := time.Now()
			b.probe(tr, q, g, rp, lastTe)
			rp.probes += time.Since(t)
		}
		tr.end(q)
		rp.series = append(rp.series, series)
		rp.predict = append(rp.predict, predict)
		rp.now = append(rp.now, append([]float64(nil), lastTe...))
	}
	rp.final = g.srv.Stats()
	id = tr.begin("gateway stop", root, 0, nil)
	err = g.stop()
	tr.end(id)
	// The in-process probes of the traced unit are measurement, not
	// part of the replay.
	elapsed := time.Since(t0) - rp.probes
	tr.end(root)
	if err != nil {
		return unitStats{}, fmt.Errorf("gateway shutdown: %w", err)
	}
	b.last = rp
	var reads []time.Duration
	for r := range rp.series {
		for i := range rp.series[r] {
			reads = append(reads, rp.series[r][i].took, rp.predict[r][i].took)
		}
	}
	// The mean, not the median: series and forecast replies take
	// different times, and a median would fall between the two.
	return unitStats{run: elapsed, reads: []time.Duration{mean(reads)}, items: float64(rp.sent), span: rp.ingest}, nil
}

// probe times the in-process reads behind the HTTP queries — the
// incremental sweep snapshot, the FTIO forecast and the app summary — at
// the same quiescent state.
func (b *liveBench) probe(tr *tracer, parent int, g *gatewayUnderTest, rp *replay, lastTe []float64) {
	for i, a := range b.stream.apps {
		id := tr.begin("gateway.Server.AppSeries", parent, 0, map[string]any{"app": a.id})
		t0 := time.Now()
		g.srv.AppSeries(a.id)
		rp.inSeries = append(rp.inSeries, time.Since(t0))
		tr.end(id)
		id = tr.begin("gateway.Server.Predict", parent, 0, map[string]any{"app": a.id})
		t0 = time.Now()
		g.srv.Predict(a.id, des.Time(des.DurationOf(lastTe[i])))
		rp.inPredict = append(rp.inPredict, time.Since(t0))
		tr.end(id)
		id = tr.begin("gateway.Server.AppInfo", parent, 0, map[string]any{"app": a.id})
		t0 = time.Now()
		g.srv.AppInfo(a.id)
		rp.inInfo = append(rp.inInfo, time.Since(t0))
		tr.end(id)
	}
}

// seriesReply is the part of /apps/{id}/series the checks read.
type seriesReply struct {
	ID                string  `json:"id"`
	RequiredBandwidth float64 `json:"required_bandwidth"`
	B                 []struct {
		T float64 `json:"t"`
		V float64 `json:"v"`
	} `json:"b"`
}

func (b *liveBench) check(u int) outcome {
	rp := b.last
	in := check.Ingest{
		Sent: rp.sent, Ingested: rp.final.Ingested, Dropped: rp.final.Dropped,
		DecodeErrors: rp.final.DecodeErrors, Late: rp.final.Late,
	}
	// A record the producer never sent, because the gateway stalled, is
	// attempted and failed like a record the gateway lost.
	total := int64(len(b.stream.records))
	o := outcome{attempted: total, failed: in.Failed() + total - rp.sent}
	note := func(err error) {
		if err != nil && o.err == nil {
			o.err = err
		}
	}
	note(check.IngestComplete(in))
	if rp.sent != total {
		note(fmt.Errorf("live: streamed %d of %d records before the gateway stalled", rp.sent, total))
	}
	var all []reply
	for r := range rp.series {
		all = append(all, rp.series[r]...)
		all = append(all, rp.predict[r]...)
	}
	all = append(all, rp.scrape...)
	o.attempted += int64(len(all))
	var digests [][32]byte
	for _, q := range all {
		if q.err != nil || q.status != http.StatusOK || q.size == 0 {
			o.failed++
			note(fmt.Errorf("live: query failed: status %d, %v", q.status, q.err))
		}
		digests = append(digests, q.digest)
	}
	if o.err != nil {
		return o
	}
	// /metrics carries wall-clock-free counters only, so every reply of
	// every unit must repeat unit 0's bytes; unit 0 is checked in full.
	if u > 0 {
		for i := range digests {
			if digests[i] != b.ref[i] {
				note(fmt.Errorf("live: unit %d reply %d differs from unit 0's", u, i))
				break
			}
		}
		return o
	}
	b.ref = digests
	var parsed []seriesReply
	for r := range rp.series {
		for i, q := range rp.series[r] {
			var sr seriesReply
			if err := json.Unmarshal(q.body, &sr); err != nil || sr.ID != b.stream.apps[i].id {
				o.failed++
				note(fmt.Errorf("live: malformed series reply for %s: %v", b.stream.apps[i].id, err))
			}
			parsed = append(parsed, sr)
		}
	}
	var forecasts []gateway.PredictJSON
	for r := range rp.predict {
		for i, q := range rp.predict[r] {
			var pj gateway.PredictJSON
			if err := json.Unmarshal(q.body, &pj); err != nil || pj.ID != b.stream.apps[i].id {
				o.failed++
				note(fmt.Errorf("live: malformed predict reply for %s: %v", b.stream.apps[i].id, err))
			}
			forecasts = append(forecasts, pj)
		}
	}
	if o.err != nil {
		return o
	}
	for r, q := range rp.scrape {
		want := fmt.Sprintf("\niogateway_records_ingested_total %d\n", b.stream.rounds[r])
		if !bytes.Contains(q.body, []byte(want)) {
			note(fmt.Errorf("live round %d: /metrics does not count the %d records streamed", r, b.stream.rounds[r]))
		}
	}
	note(b.checkAgainstOracle(parsed, forecasts))
	return o
}

// checkAgainstOracle compares every series reply with the oracle's sweep
// over the records sent so far, and every forecast with the period built
// into the stream.
func (b *liveBench) checkAgainstOracle(parsed []seriesReply, forecasts []gateway.PredictJSON) error {
	s := &b.stream
	nApps := len(s.apps)
	phases := make([][]oracle.Phase, nApps)
	bursts := make([][]oracle.Phase, nApps)
	appIndex := make(map[string]int, nApps)
	for i, a := range s.apps {
		appIndex[a.id] = i
	}
	from := 0
	for r, end := range s.rounds {
		for _, rec := range s.records[from:end] {
			i := appIndex[rec.App]
			phases[i] = append(phases[i], oracle.Phase{Start: oracle.NanosOf(rec.TsSec), End: oracle.NanosOf(rec.TeSec), Value: rec.B})
			if rec.T > 0 && rec.TteSec > rec.TtsSec {
				bursts[i] = append(bursts[i], oracle.Phase{Start: oracle.NanosOf(rec.TtsSec), End: oracle.NanosOf(rec.TteSec), Value: rec.T})
			}
		}
		from = end
		for i, a := range s.apps {
			what := fmt.Sprintf("live %s round %d", a.id, r)
			sr := parsed[r*nApps+i]
			got := make([]oracle.Point, len(sr.B))
			for j, p := range sr.B {
				got[j] = oracle.Point{T: int64(math.Round(p.T * 1e9)), V: p.V}
			}
			if err := check.Series(what, got, phases[i]); err != nil {
				return err
			}
			if err := check.Bandwidth(what, sr.RequiredBandwidth, phases[i]); err != nil {
				return err
			}
			pj := forecasts[r*nApps+i]
			signal := bursts[i]
			if len(signal) < 4 {
				signal = phases[i]
			}
			f := check.Forecast{OK: pj.OK, PeriodSec: pj.PeriodSec, NextBurstSec: pj.NextBurstSec}
			if err := check.ForecastMatches(what, f, b.last.now[r][i], a.period, spanSeconds(signal)); err != nil {
				return err
			}
		}
	}
	return nil
}

// spanSeconds is the window [first start, last end] of the phases, in s.
func spanSeconds(phases []oracle.Phase) float64 {
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, p := range phases {
		lo, hi = min(lo, p.Start), max(hi, p.End)
	}
	return float64(hi-lo) / 1e9
}

func meanMillis(ds []time.Duration) float64 { return millis(mean(ds)) }

func (b *liveBench) layers(put func(string, float64)) {
	rp := b.last
	put("tmio.encode_ns", float64(rp.encode.Nanoseconds())/float64(rp.sent))
	put("tmio.frames", float64(rp.frames))
	put("gateway.backlog_max", float64(rp.backlogMax))
	put("gateway.drain_ms", meanMillis(rp.drains))
	var seriesHTTP, predictHTTP, scrape []time.Duration
	var bytes int
	for r := range rp.series {
		for i := range rp.series[r] {
			seriesHTTP = append(seriesHTTP, rp.series[r][i].took)
			predictHTTP = append(predictHTTP, rp.predict[r][i].took)
			bytes += rp.series[r][i].size
		}
	}
	for _, q := range rp.scrape {
		scrape = append(scrape, q.took)
	}
	put("region.series_ms", meanMillis(rp.inSeries))
	put("gateway.series_http_ms", meanMillis(seriesHTTP)-meanMillis(rp.inSeries))
	put("gateway.series_bytes", float64(bytes)/float64(len(seriesHTTP)))
	put("ftio.predict_ms", meanMillis(rp.inPredict))
	put("gateway.predict_http_ms", meanMillis(predictHTTP))
	put("gateway.scrape_ms", meanMillis(scrape))
	put("gateway.appinfo_ms", meanMillis(rp.inInfo))
}
