package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. TraceID is the request index (or the
// query index for tuning); Parent is the enclosing span's ID, 0 for a root.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	TraceID int64  `json:"trace_id"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a nil tracer records nothing, so the
// untraced replay runs the same code with no span bookkeeping. Spans are
// recorded only by this benchmark, around its calls into the program.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of indexes of open spans
	trace int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setTrace sets the trace ID of spans started from now on.
func (t *tracer) setTrace(id int64) {
	if t != nil {
		t.trace = id
	}
}

// start opens a span as a child of the innermost open span.
func (t *tracer) start(name string) {
	if t == nil {
		return
	}
	var parent int64
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		Name: name, ID: int64(len(t.spans) + 1), Parent: parent, TraceID: t.trace,
		Start: int64(time.Since(t.epoch)),
	})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span, renaming it when name is not empty
// (a call whose outcome decides its name, such as a plan-cache hit or miss).
func (t *tracer) end(name string) {
	if t == nil {
		return
	}
	n := len(t.open)
	s := &t.spans[t.open[n-1]]
	t.open = t.open[:n-1]
	s.End = int64(time.Since(t.epoch))
	if name != "" {
		s.Name = name
	}
}

// layerTime is the self time of every span of one name.
type layerTime struct {
	calls int
	self  time.Duration
}

// selfTimes sums, per span name, each span's duration minus the time its
// children cover. Children of one span never overlap (the replay is
// sequential), so the covered time is the sum of their durations.
func (t *tracer) selfTimes() map[string]layerTime {
	child := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.calls++
		lt.self += time.Duration(s.End - s.Start - child[s.ID])
		out[s.Name] = lt
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportLayers turns span self times into per-call microsecond metrics.
func reportLayers(rep *report, t *tracer, names map[string]string) {
	st := t.selfTimes()
	for spanName, metricName := range names {
		lt := st[spanName]
		if lt.calls == 0 {
			continue
		}
		rep.set(metricName, "us", float64(lt.self.Nanoseconds())/1e3/float64(lt.calls))
		rep.set(metricName+".calls", "count", float64(lt.calls))
	}
}

func tracePath(root, workload string, seed int64) string {
	return filepath.Join(root, ".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
}
