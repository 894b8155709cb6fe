package runtime

import (
	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/rmt"
	"activermt/internal/telemetry"
)

// This file is the runtime's packet path: ExecuteCapsule is the only way a
// capsule executes (the switch, the embedding facade, and the benchmarks all
// call it). It performs the admission checks, fills the PHV, runs the
// capsule's compiled plan, encodes the outputs, and then drains the
// capsule's accounting, so no caller repeats that step:
//
//   - all per-packet state lives in a reusable ExecResult (pooled PHV,
//     pooled clone PHVs, pooled output capsules), so the steady-state loop
//     performs zero heap allocations;
//   - control state is read exclusively from the published snapshots
//     (ctrlView + rmt.PipeView), never from the mutable builder maps;
//   - runtime counters are telemetry handles incremented where the event
//     happens; device counters accumulate in the sink's rmt.ExecStats and
//     are flushed, and buffered guard events delivered, at the end of every
//     ExecuteCapsule call.

// guardEventKind discriminates buffered guard notifications.
type guardEventKind uint8

// Guard event kinds, mirroring the GuardHook methods.
const (
	guardEventMemFault guardEventKind = iota
	guardEventRecircThrottled
	guardEventRevokedDrop
)

// guardEvent is one buffered GuardHook notification. Events are buffered
// while a capsule executes and delivered when it finishes, so the guard
// never observes a half-executed capsule.
type guardEvent struct {
	Kind  guardEventKind
	FID   uint16
	Stage int
	Addr  uint32
	Owner uint16
	Owned bool
}

// ExecSink is one executor's accounting context: the device counter
// scratch, buffered guard events, and — with telemetry attached — the
// executor's flight recorder. Single-writer:
// each executor (the switch, the embedding facade, a benchmark loop) owns
// one.
type ExecSink struct {
	dev    *rmt.ExecStats
	events []guardEvent

	// fr is the executor's flight recorder (nil when telemetry is off); the
	// scrape goroutine copies it out under the recorder's own mutex.
	fr *telemetry.FlightRecorder
}

// NewExecSink returns a sink sized for the runtime's pipeline. The flight
// recorder is bound on the sink's first capsule after a registry is
// attached.
func (r *Runtime) NewExecSink() *ExecSink {
	return &ExecSink{dev: rmt.NewExecStats(r.dev.NumStages())}
}

// bindSink gives a sink its own flight recorder under a fresh executor id.
func (r *Runtime) bindSink(s *ExecSink) {
	t := r.tel
	s.fr = telemetry.NewFlightRecorder(int(t.execSeq.Add(1)), telemetry.DefaultFlightSize, telemetry.DefaultFlightPeriod)
	t.reg.AttachFlight(s.fr)
}

// deliverEvents replays the buffered guard events into the installed
// GuardHook and clears the buffer.
func (r *Runtime) deliverEvents(sink *ExecSink) {
	if r.guard != nil {
		for _, ev := range sink.events {
			switch ev.Kind {
			case guardEventMemFault:
				r.guard.MemFault(ev.FID, ev.Stage, ev.Addr, ev.Owner, ev.Owned)
			case guardEventRecircThrottled:
				r.guard.RecircThrottled(ev.FID)
			case guardEventRevokedDrop:
				r.guard.RevokedDrop(ev.FID)
			}
		}
	}
	sink.events = sink.events[:0]
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
// scratch state drawn from res and all accounting routed through sink, and
// leaves the outputs (primary first, then FORK clones) in res.Outputs.
// Programs whose FID was never admitted pass through unexecuted, exactly as
// a table miss would behave on the real switch. Programs whose FID was
// revoked — or is quarantined during a reallocation (FlagMemSync excepted),
// or over its recirculation budget — hard-drop: a tenant stripped of its
// grant must not retain pipeline access, and a deactivated tenant's packets
// must not leak around the snapshot.
//
// Admitted programs execute through the compiled plan cached for the
// current snapshot pair, compiling it on first sight (see specialize.go).
// Refused packets do not mutate the input capsule: the FlagFailed marking is
// applied to the copied output capsule, so the input may be a pooled buffer
// reused by the caller.
//
// Before returning, ExecuteCapsule drains the capsule's accounting: the
// device counter scratch is flushed into the device's counters and buffered
// guard events are delivered to the GuardHook. Every counter is therefore
// current when the call returns.
func (r *Runtime) ExecuteCapsule(a *packet.Active, res *ExecResult, sink *ExecSink) {
	if r.tel != nil && sink.fr == nil {
		// Telemetry may be attached after the sink was built.
		r.bindSink(sink)
	}
	r.executeOne(a, res, sink, r.view(), r.dev.View(), r.planTab.Load())
	sink.dev.FlushInto(r.dev)
	if len(sink.events) != 0 {
		r.deliverEvents(sink)
	}
}

// executeOne is ExecuteCapsule against explicitly loaded snapshots, without
// the accounting drain.
func (r *Runtime) executeOne(a *packet.Active, res *ExecResult, sink *ExecSink, cv *ctrlView, pv *rmt.PipeView, tab *planTable) {
	res.Outputs = res.Outputs[:0]
	if a.Program == nil {
		s := res.slot(0)
		s.out = Output{Active: a, Latency: r.passLat}
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
				r.refuse(a, res, sink, cv, telemetry.VerdictQuarantined)
				return
			}
			if !r.RecircAllowed(fid, a.Program.Len()) {
				r.refuse(a, res, sink, cv, telemetry.VerdictThrottled)
				return
			}
			r.execPlan(a, pl, res, sink, cv, fid)
			return
		}
	}
	if cv.revoked[fid] {
		r.refuse(a, res, sink, cv, telemetry.VerdictRevoked)
		return
	}
	if !cv.admitted[fid] {
		r.ctr.Passthrough.Inc()
		if fr := sink.fr; fr != nil && fr.ShouldSample() {
			fr.Record(telemetry.FlightEntry{FID: fid, Verdict: telemetry.VerdictPassthrough})
		}
		s := res.slot(0)
		s.out = Output{Active: a, Latency: r.passLat}
		res.addOutput(s)
		return
	}
	if cv.quarantined[fid] && a.Header.Flags&packet.FlagMemSync == 0 {
		r.refuse(a, res, sink, cv, telemetry.VerdictQuarantined)
		return
	}
	if !r.RecircAllowed(fid, a.Program.Len()) {
		// The recirculation fairness controller polices bandwidth
		// inflation (Section 7.2): over-budget programs are dropped.
		r.refuse(a, res, sink, cv, telemetry.VerdictThrottled)
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

// refuse hard-drops a capsule refused before execution with verdict v
// (revoked, quarantined or throttled): it counts the refusal, buffers the
// guard event, and force-records the capsule in the flight recorder
// (refusals always record; the sampling clock still advances so
// executed-capsule sampling stays uniform). The recirculation-throttle
// count was already taken by RecircAllowed.
//
// The output is slot 0 with FlagFailed set. The input capsule is
// shallow-copied into the slot and the flag set on the copy, so pooled
// inputs are never mutated; the copy shares the input's Program and
// Payload, which is fine for an output that is only read until the next
// ExecuteCapsule call.
func (r *Runtime) refuse(a *packet.Active, res *ExecResult, sink *ExecSink, cv *ctrlView, v telemetry.Verdict) {
	fid := a.Header.FID
	switch v {
	case telemetry.VerdictQuarantined:
		r.ctr.QuarantineDrops.Inc()
	case telemetry.VerdictRevoked:
		r.ctr.RevokedDrops.Inc()
		sink.events = append(sink.events, guardEvent{Kind: guardEventRevokedDrop, FID: fid})
	case telemetry.VerdictThrottled:
		sink.events = append(sink.events, guardEvent{Kind: guardEventRecircThrottled, FID: fid})
	}
	if fr := sink.fr; fr != nil {
		fr.ShouldSample()
		fr.Record(telemetry.FlightEntry{FID: fid, Epoch: cv.epochs[fid], Verdict: v})
	}
	s := res.slot(0)
	s.act = *a
	s.act.Header.Flags |= packet.FlagFailed
	s.out = Output{Active: &s.act, Dropped: true, Latency: r.passLat}
	res.addOutput(s)
}
