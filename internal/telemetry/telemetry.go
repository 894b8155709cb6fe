package telemetry

import (
	"fmt"
	gort "runtime"
	"sync"
	"sync/atomic"
)

// Registry holds the registered metrics and flight recorders and produces
// epoch-consistent snapshots.
//
// Consistency model: control-plane commits (grant install/remove, quarantine,
// privilege changes) wrap their gauge updates in BeginCommit/EndCommit, which
// drive a seqlock. Snapshot retries optimistically while a commit is in
// flight and, if starved, falls back to blocking new commits for the duration
// of one collection — so a scrape can never observe half of a commit (for
// example the new per-stage occupancy with the old admitted count).
// Counters incremented by the dataplane outside commit windows are monotone
// and need no such fencing.
type Registry struct {
	mu      sync.Mutex
	metrics []Metric
	names   map[string]bool
	flights []*FlightRecorder

	// liveness resolves whether a (fid, epoch) grant is still the current
	// admitted grant; it reads the runtime's published control view (an
	// atomic load), so it is safe from the scrape goroutine.
	liveness func(fid uint16, epoch uint8) bool

	// seq is the commit seqlock: odd while a commit is mutating gauges.
	// commitMu serializes committers and gives Snapshot a blocking
	// fallback that is guaranteed consistent.
	seq      atomic.Uint64
	commitMu sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// MustRegister adds metrics to the registry, panicking on a duplicate name —
// duplicate registration is a wiring bug, not a runtime condition.
func (r *Registry) MustRegister(ms ...Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range ms {
		if r.names[m.Name()] {
			panic(fmt.Sprintf("telemetry: duplicate metric %q", m.Name()))
		}
		r.names[m.Name()] = true
		r.metrics = append(r.metrics, m)
	}
}

// NewCounter constructs and registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := NewCounter(name, help)
	r.MustRegister(c)
	return c
}

// NewGauge constructs and registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := NewGauge(name, help)
	r.MustRegister(g)
	return g
}

// NewFloatGauge constructs and registers a float gauge.
func (r *Registry) NewFloatGauge(name, help string) *FloatGauge {
	g := NewFloatGauge(name, help)
	r.MustRegister(g)
	return g
}

// NewGaugeFunc constructs and registers a callback gauge. See GaugeFunc for
// the atomic-reads-only constraint on fn.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := NewGaugeFunc(name, help, fn)
	r.MustRegister(g)
	return g
}

// NewHistogram constructs and registers a histogram.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	h := NewHistogram(name, help)
	r.MustRegister(h)
	return h
}

// NewCounterVec constructs and registers a counter family.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := NewCounterVec(name, help, label)
	r.MustRegister(v)
	return v
}

// NewGaugeVec constructs and registers a gauge family.
func (r *Registry) NewGaugeVec(name, help, label string) *GaugeVec {
	v := NewGaugeVec(name, help, label)
	r.MustRegister(v)
	return v
}

// NewLevelHistogramVec constructs and registers a level-histogram family.
func (r *Registry) NewLevelHistogramVec(name, help, label string, levels []uint64) *LevelHistogramVec {
	v := NewLevelHistogramVec(name, help, label, levels)
	r.MustRegister(v)
	return v
}

// AttachFlight adds a flight recorder to the registry's snapshot set.
func (r *Registry) AttachFlight(f *FlightRecorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flights = append(r.flights, f)
}

// SetLiveness installs the grant-liveness resolver (see Registry.liveness).
func (r *Registry) SetLiveness(fn func(fid uint16, epoch uint8) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.liveness = fn
}

// BeginCommit marks the start of a control-plane commit: gauge updates
// between BeginCommit and EndCommit become visible to snapshots atomically.
// Commits are serialized; the critical section must not block on the scrape
// path.
func (r *Registry) BeginCommit() {
	r.commitMu.Lock()
	r.seq.Add(1) // now odd: commit in flight
}

// EndCommit marks the end of a control-plane commit.
func (r *Registry) EndCommit() {
	r.seq.Add(1) // now even: commit complete
	r.commitMu.Unlock()
}

// Commits returns the number of completed commits.
func (r *Registry) Commits() uint64 { return r.seq.Load() / 2 }

// Sample is one exposition sample of a metric (one child for vecs).
type Sample struct {
	Labels string      `json:"labels,omitempty"` // rendered pair, e.g. stage="3"
	Value  float64     `json:"value"`
	Hist   *HistSample `json:"hist,omitempty"`
}

// HistSample is a histogram's collected state: raw (non-cumulative) bucket
// counts where bucket i spans [2^(i-1), 2^i).
type HistSample struct {
	Count   uint64             `json:"count"`
	Sum     uint64             `json:"sum"`
	Buckets [NumBuckets]uint64 `json:"buckets"`
}

// MetricSnapshot is one metric family's collected state.
type MetricSnapshot struct {
	Name    string   `json:"name"`
	Help    string   `json:"help,omitempty"`
	Kind    Kind     `json:"-"`
	Type    string   `json:"type"`
	Samples []Sample `json:"samples"`
}

// Snapshot is one consistent view of every registered metric and the
// flight-recorder contents, with grant liveness resolved against the control
// view current at collection time.
type Snapshot struct {
	Gen        uint64           `json:"commit_gen"` // completed commits at collection
	Consistent bool             `json:"consistent"` // true unless the bounded retry loop was starved (never with the blocking fallback)
	Metrics    []MetricSnapshot `json:"metrics"`
	Flights    []FlightEntry    `json:"flights,omitempty"`
}

// snapshotRetries bounds the optimistic seqlock loop before Snapshot falls
// back to blocking commits.
const snapshotRetries = 100

// Snapshot collects every metric and flight entry into one epoch-consistent
// view. It first retries optimistically around the commit seqlock; if
// commits are too frequent it takes the commit lock, which guarantees
// consistency at the cost of briefly delaying the control plane.
func (r *Registry) Snapshot() *Snapshot {
	for i := 0; i < snapshotRetries; i++ {
		s1 := r.seq.Load()
		if s1&1 != 0 {
			gort.Gosched()
			continue
		}
		snap := r.collect()
		if r.seq.Load() == s1 {
			snap.Gen = s1 / 2
			snap.Consistent = true
			return snap
		}
	}
	// Blocking fallback: no commit can start while we hold commitMu, so the
	// collection is consistent by construction.
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	snap := r.collect()
	snap.Gen = r.seq.Load() / 2
	snap.Consistent = true
	return snap
}

// collect gathers all metrics and flight entries (no consistency fencing;
// Snapshot wraps it).
func (r *Registry) collect() *Snapshot {
	r.mu.Lock()
	metrics := append([]Metric(nil), r.metrics...)
	flights := append([]*FlightRecorder(nil), r.flights...)
	live := r.liveness
	r.mu.Unlock()

	snap := &Snapshot{Metrics: make([]MetricSnapshot, 0, len(metrics))}
	for _, m := range metrics {
		ms := MetricSnapshot{Name: m.Name(), Help: m.Help(), Kind: m.Kind(), Type: m.Kind().String()}
		m.collect(&ms)
		snap.Metrics = append(snap.Metrics, ms)
	}
	for _, f := range flights {
		snap.Flights = f.appendEntries(snap.Flights)
	}
	if live != nil {
		for i := range snap.Flights {
			e := &snap.Flights[i]
			e.Live = live(e.FID, e.Epoch)
		}
	}
	return snap
}
