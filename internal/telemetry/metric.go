// Package telemetry is the switch observability layer: a zero-alloc metrics
// core (sharded counters, gauges, power-of-two latency histograms) recorded
// through pre-registered handles, a per-executor flight recorder of sampled
// capsule traces, and epoch-consistent registry snapshots that compose with
// the runtime's atomic.Pointer publication scheme so a scrape never observes
// a torn view across a grant commit.
//
// Counters are the components' only ledger: a component builds its handles
// at construction, counts into them, reads them back with Value, and
// registers them when a registry is attached. The packet path adds no locks
// and no allocations. Everything the scrape goroutine reads is atomic-backed
// or mutex-protected; plain counter fields must never be exposed through a
// GaugeFunc.
package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Kind discriminates metric types for exposition.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Metric is anything a Registry can collect into a Snapshot.
type Metric interface {
	Name() string
	Help() string
	Kind() Kind
	// collect appends the metric's current samples. Implementations must be
	// safe to call concurrently with writers (atomic reads only).
	collect(ms *MetricSnapshot)
}

const numShards = 8 // power of two

// shard is one cache-line-padded counter cell.
type shard struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing counter, sharded across padded
// cache lines so concurrent adders do not contend on one word. Add is
// lock-free and allocation-free.
type Counter struct {
	name, help string
	shards     [numShards]shard
}

// NewCounter returns an unregistered counter (register with MustRegister,
// or construct through Registry.NewCounter).
func NewCounter(name, help string) *Counter { return &Counter{name: name, help: help} }

// Name implements Metric.
func (c *Counter) Name() string { return c.name }

// Help implements Metric.
func (c *Counter) Help() string { return c.help }

// Kind implements Metric.
func (c *Counter) Kind() Kind { return KindCounter }

// Add increments the counter by n. The shard is picked from the address of
// the argument slot: goroutine stacks live in distinct pages, so concurrent
// adders spread across shards without thread-local state.
func (c *Counter) Add(n uint64) {
	i := int(uintptr(unsafe.Pointer(&n))>>12) & (numShards - 1)
	c.shards[i].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total across shards.
func (c *Counter) Value() uint64 {
	var t uint64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

func (c *Counter) collect(ms *MetricSnapshot) {
	ms.Samples = append(ms.Samples, Sample{Value: float64(c.Value())})
}

// Gauge is an integer gauge with atomic set/add semantics.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// NewGauge returns an unregistered gauge.
func NewGauge(name, help string) *Gauge { return &Gauge{name: name, help: help} }

// Name implements Metric.
func (g *Gauge) Name() string { return g.name }

// Help implements Metric.
func (g *Gauge) Help() string { return g.help }

// Kind implements Metric.
func (g *Gauge) Kind() Kind { return KindGauge }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) collect(ms *MetricSnapshot) {
	ms.Samples = append(ms.Samples, Sample{Value: float64(g.Value())})
}

// FloatGauge is a float64 gauge stored as atomic bits.
type FloatGauge struct {
	name, help string
	v          atomic.Uint64
}

// NewFloatGauge returns an unregistered float gauge.
func NewFloatGauge(name, help string) *FloatGauge { return &FloatGauge{name: name, help: help} }

// Name implements Metric.
func (g *FloatGauge) Name() string { return g.name }

// Help implements Metric.
func (g *FloatGauge) Help() string { return g.help }

// Kind implements Metric.
func (g *FloatGauge) Kind() Kind { return KindGauge }

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

func (g *FloatGauge) collect(ms *MetricSnapshot) {
	ms.Samples = append(ms.Samples, Sample{Value: g.Value()})
}

// GaugeFunc evaluates a callback at snapshot time. The callback runs on the
// scrape goroutine while commits may be blocked on the registry: it must
// read only atomic state and must not take locks shared with a commit path.
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

// NewGaugeFunc returns an unregistered callback gauge.
func NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	return &GaugeFunc{name: name, help: help, fn: fn}
}

// Name implements Metric.
func (g *GaugeFunc) Name() string { return g.name }

// Help implements Metric.
func (g *GaugeFunc) Help() string { return g.help }

// Kind implements Metric.
func (g *GaugeFunc) Kind() Kind { return KindGauge }

func (g *GaugeFunc) collect(ms *MetricSnapshot) {
	ms.Samples = append(ms.Samples, Sample{Value: g.fn()})
}

// NumBuckets is the fixed histogram bucket count: bucket i holds values v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Bucket 0 holds zero.
// At nanosecond resolution the top bucket starts at 2^38 ns ≈ 4.6 minutes;
// larger values clamp into it.
const NumBuckets = 40

// bucketIdx maps a value to its power-of-two bucket.
func bucketIdx(v uint64) int {
	i := bits.Len64(v)
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketBound returns the inclusive upper bound of bucket i (2^i - 1).
func BucketBound(i int) uint64 { return uint64(1)<<uint(i) - 1 }

// Histogram is a fixed-bucket power-of-two histogram with atomic cells.
// Observe is lock-free and allocation-free.
type Histogram struct {
	name, help string
	buckets    [NumBuckets]atomic.Uint64
	count, sum atomic.Uint64
}

// NewHistogram returns an unregistered histogram.
func NewHistogram(name, help string) *Histogram { return &Histogram{name: name, help: help} }

// Name implements Metric.
func (h *Histogram) Name() string { return h.name }

// Help implements Metric.
func (h *Histogram) Help() string { return h.help }

// Kind implements Metric.
func (h *Histogram) Kind() Kind { return KindHistogram }

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketIdx(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

func (h *Histogram) collect(ms *MetricSnapshot) {
	hs := &HistSample{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		hs.Buckets[i] = h.buckets[i].Load()
	}
	ms.Samples = append(ms.Samples, Sample{Hist: hs})
}

// CounterVec is a family of counters distinguished by one label. Children
// are memoized by label value and enumerated at collection in insertion
// order (which keeps per-stage families in stage order).
type CounterVec struct {
	name, help, label string
	mu                sync.Mutex
	children          map[string]*Counter
	order             []string
}

// NewCounterVec returns an unregistered counter family keyed by label.
func NewCounterVec(name, help, label string) *CounterVec {
	return &CounterVec{name: name, help: help, label: label, children: make(map[string]*Counter)}
}

// Name implements Metric.
func (v *CounterVec) Name() string { return v.name }

// Help implements Metric.
func (v *CounterVec) Help() string { return v.help }

// Kind implements Metric.
func (v *CounterVec) Kind() Kind { return KindCounter }

// With returns the child counter for the label value, creating it on first
// use. Callers on hot paths must cache the returned handle.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = NewCounter(v.name, v.help)
		v.children[value] = c
		v.order = append(v.order, value)
	}
	return c
}

func (v *CounterVec) collect(ms *MetricSnapshot) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, val := range v.order {
		ms.Samples = append(ms.Samples, Sample{
			Labels: renderLabel(v.label, val),
			Value:  float64(v.children[val].Value()),
		})
	}
}

// GaugeVec is a family of gauges distinguished by one label.
type GaugeVec struct {
	name, help, label string
	mu                sync.Mutex
	children          map[string]*Gauge
	order             []string
}

// NewGaugeVec returns an unregistered gauge family keyed by label.
func NewGaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{name: name, help: help, label: label, children: make(map[string]*Gauge)}
}

// Name implements Metric.
func (v *GaugeVec) Name() string { return v.name }

// Help implements Metric.
func (v *GaugeVec) Help() string { return v.help }

// Kind implements Metric.
func (v *GaugeVec) Kind() Kind { return KindGauge }

// With returns the child gauge for the label value, creating it on first use.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.children[value]
	if !ok {
		g = NewGauge(v.name, v.help)
		v.children[value] = g
		v.order = append(v.order, value)
	}
	return g
}

// Labels returns the label values with live children, sorted — used by
// owners that zero out children for departed tenants.
func (v *GaugeVec) Labels() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := append([]string(nil), v.order...)
	sort.Strings(out)
	return out
}

func (v *GaugeVec) collect(ms *MetricSnapshot) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, val := range v.order {
		ms.Samples = append(ms.Samples, Sample{
			Labels: renderLabel(v.label, val),
			Value:  float64(v.children[val].Value()),
		})
	}
}

// LevelHistogram is a histogram over a fixed, known set of values (levels):
// an observation names its level's index, so Observe is one atomic add,
// and the power-of-two buckets, count and sum are computed from the
// per-level counts at collection. It suits quantities a model can only
// take a few values of, such as the modeled latency of each stage-slot
// count.
type LevelHistogram struct {
	levels []uint64
	counts []atomic.Uint64
}

// Observe records one observation of levels[i].
func (h *LevelHistogram) Observe(i int) { h.counts[i].Add(1) }

// addTo accumulates the histogram's current state into hs.
func (h *LevelHistogram) addTo(hs *HistSample) {
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		hs.Buckets[bucketIdx(h.levels[i])] += n
		hs.Count += n
		hs.Sum += n * h.levels[i]
	}
}

// LevelHistogramVec is a family of level histograms distinguished by one
// label, for per-tenant latency distributions. Children are memoized by
// label value and collected in insertion order; owners enforce their own
// cardinality bound (the runtime's per-FID latency family folds excess
// tenants into one "other" child) because the vec itself cannot know which
// labels matter.
type LevelHistogramVec struct {
	name, help, label string
	levels            []uint64
	mu                sync.Mutex
	children          map[string]*LevelHistogram
	order             []string
}

// NewLevelHistogramVec returns an unregistered level-histogram family keyed
// by label, over the given levels.
func NewLevelHistogramVec(name, help, label string, levels []uint64) *LevelHistogramVec {
	return &LevelHistogramVec{name: name, help: help, label: label, levels: levels, children: make(map[string]*LevelHistogram)}
}

// Name implements Metric.
func (v *LevelHistogramVec) Name() string { return v.name }

// Help implements Metric.
func (v *LevelHistogramVec) Help() string { return v.help }

// Kind implements Metric.
func (v *LevelHistogramVec) Kind() Kind { return KindHistogram }

// With returns the child histogram for the label value, creating it on first
// use. Callers on hot paths must cache the returned handle.
func (v *LevelHistogramVec) With(value string) *LevelHistogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[value]
	if !ok {
		h = &LevelHistogram{levels: v.levels, counts: make([]atomic.Uint64, len(v.levels))}
		v.children[value] = h
		v.order = append(v.order, value)
	}
	return h
}

func (v *LevelHistogramVec) collect(ms *MetricSnapshot) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, val := range v.order {
		hs := &HistSample{}
		v.children[val].addTo(hs)
		ms.Samples = append(ms.Samples, Sample{Labels: renderLabel(v.label, val), Hist: hs})
	}
}

// Total returns an unregistered histogram metric named name whose value is
// the sum of every child of v: the family-wide view of a per-label
// histogram, so the hot path observes once and both are exposed.
func (v *LevelHistogramVec) Total(name, help string) *HistogramTotal {
	return &HistogramTotal{name: name, help: help, vec: v}
}

// HistogramTotal is a histogram collected as the sum of a
// LevelHistogramVec's children (see LevelHistogramVec.Total).
type HistogramTotal struct {
	name, help string
	vec        *LevelHistogramVec
}

// Name implements Metric.
func (t *HistogramTotal) Name() string { return t.name }

// Help implements Metric.
func (t *HistogramTotal) Help() string { return t.help }

// Kind implements Metric.
func (t *HistogramTotal) Kind() Kind { return KindHistogram }

func (t *HistogramTotal) collect(ms *MetricSnapshot) {
	v := t.vec
	v.mu.Lock()
	defer v.mu.Unlock()
	hs := &HistSample{}
	for _, h := range v.children {
		h.addTo(hs)
	}
	ms.Samples = append(ms.Samples, Sample{Hist: hs})
}

// renderLabel renders one label pair in exposition form.
func renderLabel(key, value string) string { return key + `="` + value + `"` }
