package runtime

import (
	"sync"
	"time"

	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/rmt"
	"activermt/internal/telemetry"
)

// This file is the runtime's packet path: ExecuteCapsule is the only way a
// capsule executes (the switch, the embedding facade, lanes, and the
// benchmarks all call it or its batch form). It performs the admission
// checks, fills the PHV, runs the capsule's compiled plan, and encodes the
// outputs, and:
//
//   - all per-packet state lives in a reusable ExecResult (pooled PHV,
//     pooled clone PHVs, pooled output capsules), so the steady-state loop
//     performs zero heap allocations;
//   - control state is read exclusively from the published snapshots
//     (ctrlView + rmt.PipeView), never from the mutable builder maps;
//   - counters accumulate into a caller-owned ExecSink and guard events are
//     buffered there, so N lanes can execute concurrently and merge their
//     accounting under a happens-before edge instead of racing.

// GuardEventKind discriminates buffered guard notifications.
type GuardEventKind uint8

// Guard event kinds, mirroring the GuardHook methods.
const (
	GuardEventMemFault GuardEventKind = iota
	GuardEventRecircThrottled
	GuardEventRevokedDrop
)

// GuardEvent is one buffered GuardHook notification. Lanes deliver their
// buffers on the dispatch thread (at Flush/Stop) so guard state — which is
// not thread-safe — is only ever touched from one goroutine.
type GuardEvent struct {
	Kind  GuardEventKind
	FID   uint16
	Stage int
	Addr  uint32
	Owner uint16
	Owned bool
}

// PathStats mirrors the Runtime's execution counters; the hot path counts
// here and the owner flushes into the Runtime fields under exclusion.
// Specialized counts plan executions, which since every admitted capsule
// runs a plan equals ProgramsRun.
// RecircThrottled is absent: RecircAllowed already updates it atomically.
type PathStats struct {
	ProgramsRun, Passthrough, Faults uint64
	PrivSuppressed                   uint64
	QuarantineDrops, RevokedDrops    uint64
	Specialized                      uint64
}

// FlushInto drains the counters into the runtime's legacy fields (mirroring
// into telemetry when attached) and resets them. Callers must hold exclusive
// access to the runtime counters (single mode after each packet, or a lane
// merge after a quiescent drain or worker join).
func (s *PathStats) FlushInto(r *Runtime) {
	if t := r.tel; t != nil {
		s.flushTel(t)
	}
	s.flushLegacy(r)
}

// flushTel mirrors the counters into the shared telemetry counters without
// resetting them. The counters are sharded atomics, so this half is safe
// from a lane worker mid-stream; zero deltas are skipped so the per-capsule
// flush stays a few atomic adds.
func (s *PathStats) flushTel(t *Telemetry) {
	if s.ProgramsRun != 0 {
		t.ProgramsRun.Add(s.ProgramsRun)
	}
	if s.Passthrough != 0 {
		t.Passthrough.Add(s.Passthrough)
	}
	if s.Faults != 0 {
		t.Faults.Add(s.Faults)
	}
	if s.PrivSuppressed != 0 {
		t.PrivSuppressed.Add(s.PrivSuppressed)
	}
	if s.QuarantineDrops != 0 {
		t.QuarantineDrops.Add(s.QuarantineDrops)
	}
	if s.RevokedDrops != 0 {
		t.RevokedDrops.Add(s.RevokedDrops)
	}
	if s.Specialized != 0 {
		t.Specialized.Add(s.Specialized)
	}
}

// flushLegacy drains the counters into the runtime's legacy fields and
// resets them, with no telemetry mirror — the merge half for counts whose
// telemetry was already mirrored mid-stream (lane carries). Exclusive access
// to the runtime counters required.
func (s *PathStats) flushLegacy(r *Runtime) {
	r.ProgramsRun += s.ProgramsRun
	r.Passthrough += s.Passthrough
	r.Faults += s.Faults
	r.PrivSuppressed += s.PrivSuppressed
	r.QuarantineDrops += s.QuarantineDrops
	r.RevokedDrops += s.RevokedDrops
	r.SpecializedRuns += s.Specialized
	*s = PathStats{}
}

// addInto adds the counters into dst without resetting s.
func (s *PathStats) addInto(dst *PathStats) {
	dst.ProgramsRun += s.ProgramsRun
	dst.Passthrough += s.Passthrough
	dst.Faults += s.Faults
	dst.PrivSuppressed += s.PrivSuppressed
	dst.QuarantineDrops += s.QuarantineDrops
	dst.RevokedDrops += s.RevokedDrops
	dst.Specialized += s.Specialized
}

// ExecSink is the per-executor accounting context: path counters, a device
// counter sink, and buffered guard events. Each lane owns one; the switch
// owns one and drains it after every capsule.
type ExecSink struct {
	Path   PathStats
	Dev    *rmt.ExecStats
	Events []GuardEvent

	// FR is the executor's flight recorder (nil when telemetry is off).
	// Single-writer like the rest of the sink; the scrape goroutine copies
	// it out under the recorder's own mutex.
	FR *telemetry.FlightRecorder

	// lat is the bounded per-FID latency recorder (nil when telemetry is
	// off). Only the batch path records into it — ExecuteBatch observes per
	// packet and flushes once per batch — so the single-capsule path pays
	// nothing for it.
	lat *latVec
}

// NewExecSink returns a sink sized for the runtime's pipeline, bound to the
// attached telemetry (if any; see BindSink).
func (r *Runtime) NewExecSink() *ExecSink {
	s := &ExecSink{Dev: rmt.NewExecStats(r.dev.NumStages())}
	r.BindSink(s)
	return s
}

// BindSink gives a sink that has none the attached telemetry's recorders:
// its own flight recorder under a fresh lane id and a per-FID latency
// recorder for the batch path. A no-op without telemetry or when the sink is
// already bound, so a long-lived executor calls it per capsule to pick up
// telemetry attached after the sink was created. Sink owner only.
func (r *Runtime) BindSink(s *ExecSink) {
	t := r.tel
	if t == nil || s.FR != nil {
		return
	}
	s.FR = telemetry.NewFlightRecorder(int(t.laneSeq.Add(1)), telemetry.DefaultFlightSize, telemetry.DefaultFlightPeriod)
	t.reg.AttachFlight(s.FR)
	s.lat = newLatVec(t.PacketLatFID)
}

// DeliverEvents replays the buffered guard events into the installed
// GuardHook (single-threaded callers only) and clears the buffer.
func (r *Runtime) DeliverEvents(sink *ExecSink) {
	if r.guard != nil {
		for _, ev := range sink.Events {
			switch ev.Kind {
			case GuardEventMemFault:
				r.guard.MemFault(ev.FID, ev.Stage, ev.Addr, ev.Owner, ev.Owned)
			case GuardEventRecircThrottled:
				r.guard.RecircThrottled(ev.FID)
			case GuardEventRevokedDrop:
				r.guard.RevokedDrop(ev.FID)
			}
		}
	}
	sink.Events = sink.Events[:0]
}

// flightRefusal force-records a refused capsule into the sink's flight
// recorder (refusals always record; the sampling clock still advances so
// executed-capsule sampling stays uniform). The epoch lookup only happens
// on refusal paths, never per clean packet.
func (s *ExecSink) flightRefusal(cv *ctrlView, fid uint16, v telemetry.Verdict) {
	if fr := s.FR; fr != nil {
		fr.ShouldSample()
		fr.Record(telemetry.FlightEntry{FID: fid, Epoch: cv.epochs[fid], Verdict: v})
	}
}

// outSlot is one reusable output capsule: the Active, its Program, and the
// Output envelope all have stable addresses across reuse.
type outSlot struct {
	out  Output
	act  packet.Active
	prog isa.Program
}

// ExecResult holds every piece of per-packet scratch state the packet path
// needs: a pooled PHV, the device's output collector (with its pooled clone
// PHVs), and reusable output capsules. Outputs are valid until the next
// ExecuteCapsule call with the same ExecResult; callers that need to retain
// an output must copy it.
type ExecResult struct {
	Outputs []*Output

	phv     *rmt.PHV
	devOuts rmt.PlanOutputs
	slots   []*outSlot

	// memo is the direct-mapped plan memo (see specialize.go): single-writer
	// like the rest of the scratch state, validated per hit by plan-table
	// generation and program pointer identity.
	memo [planMemoSize]planMemoEntry
}

// NewExecResult returns an ExecResult ready for ExecuteCapsule.
func NewExecResult() *ExecResult {
	return &ExecResult{phv: &rmt.PHV{}}
}

var execResultPool = sync.Pool{New: func() any { return NewExecResult() }}

// GetExecResult takes an ExecResult from the package pool.
func GetExecResult() *ExecResult { return execResultPool.Get().(*ExecResult) }

// PutExecResult returns an ExecResult to the pool. The caller must not
// retain any Output obtained from it.
func PutExecResult(res *ExecResult) {
	res.Outputs = res.Outputs[:0]
	res.memo = [planMemoSize]planMemoEntry{} // drop plan references across owners
	execResultPool.Put(res)
}

// slot returns reusable output slot i, growing the slot table on first use.
func (res *ExecResult) slot(i int) *outSlot {
	for len(res.slots) <= i {
		res.slots = append(res.slots, &outSlot{})
	}
	return res.slots[i]
}

// addOutput appends a prepared slot's Output.
func (res *ExecResult) addOutput(s *outSlot) { res.Outputs = append(res.Outputs, &s.out) }

// ExecuteCapsule runs one program capsule through the pipeline with all
// scratch state drawn from res and all accounting routed into sink, and
// leaves the outputs (primary first, then FORK clones) in res.Outputs.
// Programs whose FID was never admitted pass through unexecuted, exactly as
// a table miss would behave on the real switch. Programs whose FID was
// revoked — or is quarantined during a reallocation (FlagMemSync excepted),
// or over its recirculation budget — hard-drop: a tenant stripped of its
// grant must not retain pipeline access, and a deactivated tenant's packets
// must not leak around the snapshot. Guard notifications are buffered in
// the sink (DeliverEvents replays them).
//
// Admitted programs execute through the compiled plan cached for the
// current snapshot pair, compiling it on first sight (see specialize.go).
// Refused packets do not mutate the input capsule: the FlagFailed marking is
// applied to the copied output capsule, so the input may be a pooled buffer
// reused by the caller.
func (r *Runtime) ExecuteCapsule(a *packet.Active, res *ExecResult, sink *ExecSink) {
	r.executeOne(a, res, sink, r.view(), r.dev.View(), r.planTab.Load())
}

// executeOne is ExecuteCapsule against explicitly loaded snapshots, shared
// by the single-packet and batch entry points.
func (r *Runtime) executeOne(a *packet.Active, res *ExecResult, sink *ExecSink, cv *ctrlView, pv *rmt.PipeView, tab *planTable) {
	res.Outputs = res.Outputs[:0]
	lat := r.passLat
	if a.Program == nil {
		s := res.slot(0)
		s.out = Output{Active: a, Latency: lat}
		res.addOutput(s)
		return
	}
	fid := a.Header.FID
	// The plan table is usable only when it matches the loaded snapshot
	// pair by pointer identity (a publish in between unreaches it). A cached
	// plan exists only for a FID that passed the admission checks under this
	// exact control view, so a hit skips the revoked/admitted map lookups;
	// the quarantine mark is folded into the plan and only the
	// packet-dependent checks (FlagMemSync, recirculation budget) remain.
	current := tab.cv == cv && tab.pv == pv
	if current {
		// The direct-mapped memo remembers the plan this executor last
		// resolved for the FID's slot; a hit (validated by table generation
		// and program pointer identity) skips the plan map's hash entirely.
		m := &res.memo[int(fid)&(planMemoSize-1)]
		pl := m.pl
		if m.gen != tab.gen || m.prog != a.Program || m.fid != fid {
			pl = tab.plans[planKey{prog: a.Program, fid: fid}]
			if pl != nil {
				*m = planMemoEntry{gen: tab.gen, prog: a.Program, fid: fid, pl: pl}
			}
		}
		if pl != nil {
			if pl.quarantined && a.Header.Flags&packet.FlagMemSync == 0 {
				sink.Path.QuarantineDrops++
				sink.flightRefusal(cv, fid, telemetry.VerdictQuarantined)
				res.hardDrop(a, lat)
				return
			}
			if !r.RecircAllowed(fid, a.Program.Len()) {
				sink.Events = append(sink.Events, GuardEvent{Kind: GuardEventRecircThrottled, FID: fid})
				sink.flightRefusal(cv, fid, telemetry.VerdictThrottled)
				res.hardDrop(a, lat)
				return
			}
			r.execPlan(a, pl, res, sink, cv, fid)
			return
		}
	}
	if cv.revoked[fid] {
		sink.Path.RevokedDrops++
		sink.Events = append(sink.Events, GuardEvent{Kind: GuardEventRevokedDrop, FID: fid})
		sink.flightRefusal(cv, fid, telemetry.VerdictRevoked)
		res.hardDrop(a, lat)
		return
	}
	if !cv.admitted[fid] {
		sink.Path.Passthrough++
		if fr := sink.FR; fr != nil && fr.ShouldSample() {
			fr.Record(telemetry.FlightEntry{FID: fid, Verdict: telemetry.VerdictPassthrough})
		}
		s := res.slot(0)
		s.out = Output{Active: a, Latency: lat}
		res.addOutput(s)
		return
	}
	if cv.quarantined[fid] && a.Header.Flags&packet.FlagMemSync == 0 {
		sink.Path.QuarantineDrops++
		sink.flightRefusal(cv, fid, telemetry.VerdictQuarantined)
		res.hardDrop(a, lat)
		return
	}
	if !r.RecircAllowed(fid, a.Program.Len()) {
		// The recirculation fairness controller polices bandwidth
		// inflation (Section 7.2): over-budget programs are dropped.
		sink.Events = append(sink.Events, GuardEvent{Kind: GuardEventRecircThrottled, FID: fid})
		sink.flightRefusal(cv, fid, telemetry.VerdictThrottled)
		res.hardDrop(a, lat)
		return
	}
	key := planKey{prog: a.Program, fid: fid}
	var pl *compiledPlan
	if current {
		// First sighting of this program version under the current
		// snapshots, past all admission checks: compile (cached for every
		// subsequent packet).
		pl = r.compilePlan(tab, key)
	} else {
		// Post-publish window: the loaded snapshot pair has no plan table
		// yet. Execute a one-shot plan compiled against the pair.
		pl = r.buildPlan(cv, pv, key)
	}
	r.execPlan(a, pl, res, sink, cv, fid)
}

// hardDrop fills slot 0 with the dropped-with-FlagFailed output for packets
// refused before execution. The input capsule is shallow-copied into the
// slot and the failure flag set on the copy, so pooled inputs are never
// mutated; the copy shares the input's Program and Payload, which is fine
// for an output that is only read until the next ExecuteCapsule call.
func (res *ExecResult) hardDrop(a *packet.Active, lat time.Duration) {
	s := res.slot(0)
	s.act = *a
	s.act.Header.Flags |= packet.FlagFailed
	s.out = Output{Active: &s.act, Dropped: true, Latency: lat}
	res.addOutput(s)
}
