package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"activermt/internal/netsim"
)

// Span kinds: the benchmark's own calls into the program's public entry
// points. Every other layer is attributed by fixed-input replay (replay.go)
// and the program's counters, never by instrumenting the program.
const (
	spanStep    = iota // netsim.Engine.Step
	spanGet            // fabric.CoherentCache.Get or apps.Cache.Get
	spanPut            // fabric.CoherentCache.Put
	spanRequest        // client.Client.RequestAllocation
	spanRelease        // client.Client.Release
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"netsim.Step", "client.Get", "client.Put", "client.RequestAllocation", "client.Release"}

// maxKeptSpans bounds the spans held in memory for the trace file; the
// per-kind totals cover every span regardless.
const maxKeptSpans = 200_000

// span is one timed call: offsets from the tracer's origin in ns, the index
// of the enclosing span (-1 at top level) and the op it served (-1 when
// the call is not tied to one op, as for most engine steps).
type span struct {
	kind       uint8
	start, end int64
	parent     int32
	op         int32
}

// tracer records spans around the benchmark's own calls. It is nil on
// untraced runs, where every call site takes the plain path.
type tracer struct {
	t0    time.Time
	spans []span
	open  int32 // index of the innermost open kept span, -1 if none

	ns      [numSpanKinds]int64 // total duration per kind
	n       [numSpanKinds]int64 // call count per kind
	dropped int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: -1, spans: make([]span, 0, maxKeptSpans)}
}

// mark is an open span.
type mark struct {
	start time.Time
	idx   int32
	kind  uint8
	prev  int32
}

func (t *tracer) begin(kind uint8, op int) mark {
	m := mark{kind: kind, idx: -1, prev: t.open}
	if len(t.spans) < maxKeptSpans {
		m.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{kind: kind, parent: t.open, op: int32(op)})
		t.open = m.idx
	} else {
		t.dropped++
	}
	m.start = time.Now()
	return m
}

func (t *tracer) end(m mark) {
	now := time.Now()
	d := now.Sub(m.start).Nanoseconds()
	t.ns[m.kind] += d
	t.n[m.kind]++
	if m.idx >= 0 {
		s := &t.spans[m.idx]
		s.start = m.start.Sub(t.t0).Nanoseconds()
		s.end = now.Sub(t.t0).Nanoseconds()
	}
	t.open = m.prev
}

// step runs one engine event inside a span.
func (t *tracer) step(eng *netsim.Engine) bool {
	m := t.begin(spanStep, -1)
	ok := eng.Step()
	t.end(m)
	return ok
}

// spanCost is the tracer's own cost, measured on empty spans: stepInside
// is the part a step span's recorded duration includes, callInside the
// same for an op-call span, and callFull the whole cost of one op-call
// span, all of which the enclosing step's duration includes.
type spanCost struct{ stepInside, callInside, callFull float64 }

// calibrate measures spanCost with the same tracer code the run used: step
// spans around an engine with nothing to do, op-call spans around nothing.
func calibrate() spanCost {
	const n = 200_000
	idle := netsim.NewEngine()
	t := newTracer()
	for i := 0; i < n; i++ {
		t.step(idle)
	}
	stepInside := float64(t.ns[spanStep]) / n
	t = newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(spanGet, i))
	}
	full := float64(time.Since(start).Nanoseconds()) / n
	return spanCost{stepInside: stepInside, callInside: float64(t.ns[spanGet]) / n, callFull: full}
}

// opCallNs is the total time of the op-issuing calls (every kind but steps).
func (t *tracer) opCallNs() int64 {
	var s int64
	for k := spanGet; k < numSpanKinds; k++ {
		s += t.ns[k]
	}
	return s
}

// opCalls counts the op-issuing calls.
func (t *tracer) opCalls() int64 {
	var n int64
	for k := spanGet; k < numSpanKinds; k++ {
		n += t.n[k]
	}
	return n
}

// write stores the kept spans as CSV (name,start_ns,end_ns,parent,op).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,op")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", spanNames[s.kind], s.start, s.end, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
