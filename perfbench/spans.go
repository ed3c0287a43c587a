package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one unit of work share its
// unit number; lane is the thread row the span is drawn on, so spans on
// one lane nest.
type span struct {
	name       string
	unit       int
	lane       int
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
	args       map[string]any
}

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so the untraced run goes through the same code with no spans.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	unit  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent on lane and returns its id.
func (t *tracer) begin(name string, parent, lane int, args map[string]any) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, unit: t.unit, lane: lane, parent: parent, start: now, end: -1, args: args})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// setUnit numbers the spans opened from now on.
func (t *tracer) setUnit(u int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.unit = u
	t.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"unit": s.unit}
		for k, v := range s.args {
			args[k] = v
		}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		events = append(events, event{
			Name: s.name, Cat: "perfbench", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.lane, Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// table aggregates spans by name. A span's self time is its duration
// minus the part of it that the union of its children's intervals covers.
func (t *tracer) table() []layerRow {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	rows := make(map[string]*layerRow)
	var order []string
	for i, s := range t.spans {
		r, ok := rows[s.name]
		if !ok {
			r = &layerRow{name: s.name}
			rows[s.name] = r
			order = append(order, s.name)
		}
		dur := s.end - s.start
		r.count++
		r.total += dur
		r.self += dur - t.covered(children[i], s.start, s.end)
	}
	out := make([]layerRow, 0, len(order))
	for _, name := range order {
		out = append(out, *rows[name])
	}
	return out
}

// covered is the length of [from, to) covered by the union of the spans ids.
func (t *tracer) covered(ids []int, from, to time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(t.spans[id].start, from), min(t.spans[id].end, to)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, reach time.Duration
	reach = from
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		if v.a > reach {
			reach = v.a
		}
		total += v.b - reach
		reach = v.b
	}
	return total
}

// printTable writes the per-layer table: span count, total and self time.
func printTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "layer call", "count", "total ms", "self ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", r.name, r.count, millis(r.total), millis(r.self))
	}
}
