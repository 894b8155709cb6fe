package runtime

import (
	"fmt"
	gort "runtime"
	"sort"
	"sync"

	"activermt/internal/packet"
	"activermt/internal/rmt"
)

// sched yields the processor while a quiesce spin-waits for lane drains.
func sched() { gort.Gosched() }

// Lanes is the parallel multi-lane dataplane: N worker goroutines, each
// owning a block-aligned stripe of every stage's register array, executing
// capsules concurrently against the published pipeline snapshots. The
// dispatch thread hands batches to workers over per-lane bounded SPSC rings
// (see ring.go): no channel locks, no shared free-list, and the dispatch
// write lands directly in the lane-owned slab that the worker will execute
// from.
//
// Safety model (why this is race-free without per-word locks):
//
//   - Every admitted tenant is pinned to exactly one lane (see
//     RefreshRoutes): each lane owns the block-aligned stripes of the
//     tenants dealt to it. Regions of distinct tenants are disjoint (the
//     allocator's isolation invariant), so every register word has at most
//     one writing lane: single-writer, no locks. Tenants without memory
//     (and unadmitted FIDs) are spread by flow hash; they touch no words.
//   - The hot path reads only the immutable published snapshots (ctrlView,
//     rmt.PipeView), swapped atomically by the controller thread.
//   - Each worker owns its ExecResult (private plan memo), ExecSink
//     (counters, HistLocal latency twin, flight recorder), and ring slot —
//     no hot-path cache line is written by more than one goroutine.
//   - Counters accumulate in the per-lane sinks and merge into the
//     runtime's legacy fields at Quiesce and Stop, under the happens-before
//     edge of the ring drain (the worker's head store orders every sink
//     write before the merger's drain load). Workers additionally mirror
//     their counters into the sharded atomic telemetry metrics mid-stream,
//     so live scrapes see multi-lane progress without a quiesce.
//
// Control-plane rule: operations that WRITE register words (InstallGrant
// zeroes the granted region) require Quiesce() first — drain in-flight
// packets, commit, then resume dispatching. Operations that only retract
// state (RemoveGrant, Deactivate) are safe mid-stream: packets already in a
// lane executed against the old published view (exactly the semantics of a
// table swap on hardware), and packets dispatched after the commit see the
// new one.
//
// The single-threaded deterministic mode (ExecuteCapsule, which the switch
// runs for netsim experiments and chaos scenarios) remains the default;
// Lanes is the throughput mode behind `activebench -lanes N`.
type Lanes struct {
	rt *Runtime
	n  int

	rings   []*laneRing
	workers []*laneWorker
	wg      sync.WaitGroup

	// routes pins admitted FIDs to lanes; rebuilt from the published
	// pipeline view on Start and RefreshRoutes.
	routes map[uint16]int
	// routeView is the pipeline view routes were computed from. RefreshRoutes
	// is a no-op while the device republishes the same view pointer — grant
	// commits rebuild the view, so an unchanged pointer means unchanged
	// regions.
	routeView   *rmt.PipeView
	routeBuilds uint64

	open      [][]*packet.Active // per-lane ring slab being filled by Dispatch
	batchSize int
	stopped   bool

	// Sink, if set, receives every output on the worker goroutine that
	// produced it. The *Output is only valid for the duration of the call.
	Sink func(lane int, out *Output)
}

type laneWorker struct {
	id   int
	res  *ExecResult
	sink *ExecSink
	// carry accumulates counters the worker already mirrored into telemetry
	// mid-stream; they merge into the legacy runtime/device fields at the
	// next quiesce or stop, so nothing is double-counted and nothing is lost.
	carryPath PathStats
	carryDev  *rmt.ExecStats
	// emit delivers one capsule's outputs to l.Sink; built lazily on first
	// use so the closure is allocated once per worker, not per batch.
	emit func(a *packet.Active, outs []*Output)
}

// DefaultLaneBatch is the dispatch batch size: large enough to amortize the
// ring's cursor hand-off, small enough to keep lanes busy under skew.
const DefaultLaneBatch = 128

// laneTelFlushBatches is how often (in executed batches) a worker mirrors
// its accumulated counters into the shared telemetry metrics. At the default
// batch size that is every ~8K capsules — frequent enough for live scrapes,
// rare enough to be invisible in the profile.
const laneTelFlushBatches = 64

// NewLanes starts n worker lanes over the runtime. The runtime must have a
// nil device trace hook, and the caller must route all control-plane
// operations through the same goroutine that calls Dispatch/Quiesce/Stop.
func (r *Runtime) NewLanes(n int) (*Lanes, error) {
	if n < 1 {
		return nil, fmt.Errorf("runtime: lane count %d < 1", n)
	}
	l := &Lanes{
		rt:        r,
		n:         n,
		rings:     make([]*laneRing, n),
		workers:   make([]*laneWorker, n),
		open:      make([][]*packet.Active, n),
		batchSize: DefaultLaneBatch,
		routes:    make(map[uint16]int),
	}
	for i := 0; i < n; i++ {
		l.rings[i] = newLaneRing(l.batchSize)
		w := &laneWorker{
			id:       i,
			res:      NewExecResult(),
			sink:     r.NewExecSink(),
			carryDev: rmt.NewExecStats(r.dev.NumStages()),
		}
		l.workers[i] = w
		l.wg.Add(1)
		go l.runLane(w)
	}
	l.RefreshRoutes()
	if r.tel != nil {
		r.telLanes.Store(l)
	}
	return l, nil
}

// N returns the lane count.
func (l *Lanes) N() int { return l.n }

// RouteBuilds returns how many times the FID→lane pinning has actually been
// recomputed (rebuilds skipped for an unchanged view don't count).
func (l *Lanes) RouteBuilds() uint64 { return l.routeBuilds }

// QueueDepth returns the number of dispatched capsules not yet fully
// executed, summed over lanes. Atomic reads; safe from any goroutine.
func (l *Lanes) QueueDepth() uint64 {
	var d uint64
	for _, g := range l.rings {
		d += g.depth()
	}
	return d
}

// RefreshRoutes recomputes the FID→lane pinning from the published pipeline
// view. Call after control-plane commits that add tenants (NewLanes and
// Quiesce call it automatically). The rebuild is skipped when the device is
// still publishing the view the current routes were computed from.
//
// Pinning is RSS-style with occupancy weighting: tenants are dealt to lanes
// heaviest-first (total granted words across stages), each to the currently
// least-loaded lane, so a skewed tenant mix — one elastic tenant holding
// half a stage next to a crowd of one-block tenants — still balances instead
// of landing wherever insertion order put it. Any deterministic tenant→lane
// map preserves the single-writer invariant — tenant regions are disjoint,
// so a word is only ever written by its owner's one lane — the deal order is
// purely a load-balancing choice. Ties are broken by (base address, stage,
// FID) and lowest lane index, keeping the deal deterministic.
func (l *Lanes) RefreshRoutes() {
	v := l.rt.dev.View()
	if v == l.routeView {
		return
	}
	for fid := range l.routes {
		delete(l.routes, fid)
	}
	type tenant struct {
		fid   uint16
		words uint64 // total granted words across stages: the occupancy weight
		lo    uint32 // first-seen region base, for deterministic tie-breaks
		stage int
	}
	var tenants []tenant
	index := make(map[uint16]int)
	for s := 0; s < l.rt.dev.NumStages(); s++ {
		sv := v.StageView(s)
		for _, reg := range sv.Regions() {
			i, ok := index[reg.FID]
			if !ok {
				i = len(tenants)
				index[reg.FID] = i
				tenants = append(tenants, tenant{fid: reg.FID, lo: reg.Lo, stage: s})
			}
			tenants[i].words += uint64(reg.Hi - reg.Lo)
		}
	}
	sort.Slice(tenants, func(i, j int) bool {
		if tenants[i].words != tenants[j].words {
			return tenants[i].words > tenants[j].words
		}
		if tenants[i].lo != tenants[j].lo {
			return tenants[i].lo < tenants[j].lo
		}
		if tenants[i].stage != tenants[j].stage {
			return tenants[i].stage < tenants[j].stage
		}
		return tenants[i].fid < tenants[j].fid
	})
	load := make([]uint64, l.n)
	for _, t := range tenants {
		lane := 0
		for k := 1; k < l.n; k++ {
			if load[k] < load[lane] {
				lane = k
			}
		}
		l.routes[t.fid] = lane
		load[lane] += t.words
	}
	l.routeView = v
	l.routeBuilds++
}

// Dispatch queues a capsule for execution. Tenants with installed memory go
// to their pinned lane; everything else spreads by flowHash. The capsule is
// owned by the lane until its outputs have been delivered; with a pooled
// capsule, recycle it only after Quiesce or Stop.
func (l *Lanes) Dispatch(a *packet.Active, flowHash uint32) {
	lane, ok := l.routes[a.Header.FID]
	if !ok {
		lane = int(flowHash % uint32(l.n))
	}
	b := l.open[lane]
	if b == nil {
		b = l.rings[lane].acquire()
	}
	b = append(b, a)
	if len(b) >= l.batchSize {
		l.rings[lane].publish(b)
		b = nil
	}
	l.open[lane] = b
}

// Flush publishes all partially filled slabs to their lanes.
func (l *Lanes) Flush() {
	for lane, b := range l.open {
		if len(b) > 0 {
			l.rings[lane].publish(b)
			l.open[lane] = nil
		}
	}
}

// Quiesce drains the lanes: it flushes pending batches, waits until every
// dispatched capsule has been processed, merges lane accounting into the
// runtime, and refreshes lane routes. After Quiesce returns, no worker is
// touching register words, so the caller may perform word-writing control
// operations (InstallGrant) before dispatching again — and the runtime's
// counters and telemetry are exact as of the drain, making Quiesce a true
// flush point, not just a barrier.
func (l *Lanes) Quiesce() {
	l.Flush()
	for _, g := range l.rings {
		for !g.drained() {
			// Busy-wait with yields: drains are short (bounded by ring
			// depth × batch size) and Quiesce is a control-plane operation.
			sched()
		}
	}
	l.mergeSinks()
	l.RefreshRoutes()
}

// mergeSinks folds every lane's accounting — mid-stream telemetry carry,
// residual sink counters, buffered guard events — into the runtime and
// device. Callers must have established quiescence (drained rings or joined
// workers): the worker's release store orders all of its sink writes before
// the drain load observed here, and the worker writes its sink only between
// next() and release().
func (l *Lanes) mergeSinks() {
	for _, w := range l.workers {
		w.carryPath.flushLegacy(l.rt)
		w.carryDev.FlushLegacyInto(l.rt.dev)
		w.sink.Path.FlushInto(l.rt)
		w.sink.Dev.FlushInto(l.rt.dev)
		l.rt.DeliverEvents(w.sink)
	}
}

// Stop drains and joins the lanes, then merges every lane's counters and
// buffered guard events into the runtime and device under the join's
// happens-before edge. The Lanes value is dead afterwards.
func (l *Lanes) Stop() {
	if l.stopped {
		return
	}
	l.stopped = true
	l.Flush()
	for _, g := range l.rings {
		g.closed.Store(true)
	}
	l.wg.Wait()
	l.mergeSinks()
	l.rt.telLanes.CompareAndSwap(l, nil)
}

func (l *Lanes) runLane(w *laneWorker) {
	defer l.wg.Done()
	g := l.rings[w.id]
	idle, batches := 0, 0
	for {
		batch, ok := g.next()
		if !ok {
			if g.closed.Load() {
				// Re-poll once after observing close: the producer flushes
				// before closing, so a miss here means the ring is empty for
				// good.
				if batch, ok = g.next(); !ok {
					return
				}
			} else {
				idle++
				idleWait(idle)
				continue
			}
		}
		idle = 0
		// Whole-batch execution: snapshots and the plan table are loaded
		// once per dequeued batch instead of once per capsule, and the
		// per-FID latency recorder flushes once per batch — this is what
		// removed the per-packet hand-off overhead that made lanes slower
		// than the single-threaded loop.
		emit := w.emit
		if l.Sink != nil {
			if emit == nil {
				w.emit = func(a *packet.Active, outs []*Output) {
					for _, out := range outs {
						l.Sink(w.id, out)
					}
				}
				emit = w.emit
			}
		} else {
			emit = nil
		}
		l.rt.ExecuteBatch(batch, w.res, w.sink, emit)
		batches++
		if l.rt.tel != nil && batches%laneTelFlushBatches == 0 {
			// Mid-stream telemetry mirror, strictly inside the batch's
			// next/release window so it never races a quiescent merge.
			w.flushTel(l.rt)
		}
		g.release(len(batch))
	}
}

// flushTel mirrors the worker's accumulated counters into the shared
// (sharded, atomic) telemetry metrics without touching the runtime's legacy
// fields; the drained values move to the worker's carry so the next
// quiescent merge settles the legacy side exactly once. Worker goroutine
// only, between next() and release().
func (w *laneWorker) flushTel(r *Runtime) {
	if t := r.tel; t != nil {
		w.sink.Path.flushTel(t)
	}
	w.sink.Path.addInto(&w.carryPath)
	w.sink.Path = PathStats{}
	w.sink.Dev.FlushTelemetryInto(r.dev, w.carryDev)
}
