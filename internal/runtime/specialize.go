package runtime

import (
	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/rmt"
	"activermt/internal/telemetry"
)

// This file is the plan layer of the packet path. The decoded-program cache
// already canonicalizes programs per (FID, epoch, len, CRC32): every capsule
// carrying the same program version under the same grant epoch resolves to
// one shared *isa.Program. The runtime exploits that identity to compile
// each admitted program version once — against the exact published snapshot
// pair (ctrlView, rmt.PipeView) — into a straight-line rmt.Plan, and every
// packet executes through a plan.
//
// Validity is pointer identity, never comparison: a plan table remembers the
// snapshot pair it was built against, publish() installs a fresh empty table
// after every snapshot swap, and the hot path uses a table only when its
// snapshot pointers equal the ones just loaded. A grant install, epoch bump,
// quarantine flip, privilege change, mirror-session change, or revocation all
// funnel through publish(), so every one of them unreaches the previous
// table wholesale; a stale plan cannot execute because nothing can reach it.
//
// Nothing falls back: a full plan table, or the window between a publish and
// the fresh table (a reader that loaded the new snapshots before the table
// swap), executes a one-shot plan compiled against the snapshot pair the
// packet already loaded.

// planKey identifies one compiled plan: the canonical decoded-program
// pointer (which already encodes FID, grant epoch, length, and CRC32 — see
// packet.ProgCache) plus the executing FID, so a capsule replaying another
// tenant's cached program body still gets its own bounds folded in.
type planKey struct {
	prog *isa.Program
	fid  uint16
}

// compiledPlan is the runtime-side wrapper of one compiled program: the
// privilege-rewritten instruction image the output encoder slices from, the
// device plan, and the admission facts folded at compile time.
type compiledPlan struct {
	rp     *rmt.Plan
	instrs []isa.Instruction
	// suppressed is the number of privileged instructions rewritten to NOP
	// at compile time; suppressions are counted per packet, so every
	// execution adds this amount.
	suppressed uint64
	// quarantined snapshots the FID's quarantine mark under the compile
	// view: plans exist only for admitted, unrevoked FIDs (compilation runs
	// after the admission checks), so this is the only per-FID admission
	// flag the cached-plan entry still has to consult.
	quarantined bool
	// preMarked notes that the wire image arrived with Executed bits already
	// set on some headers, forcing the output encoder onto its filtering
	// slow path (those headers are shrunk too).
	preMarked bool
	// lat is the FID's packet-latency histogram (nil without telemetry);
	// resolving it at compile time keeps label lookups off the hot path.
	lat *telemetry.LevelHistogram
}

// planMemoSize is the per-ExecResult direct-mapped plan memo size (a power
// of two). The memo short-circuits the plan-table map hash for the FIDs an
// executor is actively serving; a collision or a table swap just falls back
// to the map lookup.
const planMemoSize = 16

// planMemoEntry caches one resolved plan, validated by table generation
// (which pins the snapshot pair) and canonical program pointer. It holds the
// generation rather than the table so a stale entry never keeps a
// superseded table and its plans alive.
type planMemoEntry struct {
	gen  uint64
	prog *isa.Program
	fid  uint16
	pl   *compiledPlan
}

// planTable maps program versions to compiled plans under one snapshot pair.
// Tables are copy-on-write: lookups walk the map lock-free while inserts
// (rare — once per program version per publish) build a new table under
// planMu and republish the pointer.
type planTable struct {
	gen   uint64 // unique per table, never 0 (numbered by Runtime.planGen)
	cv    *ctrlView
	pv    *rmt.PipeView
	plans map[planKey]*compiledPlan
}

// maxPlans bounds a plan table. Overflowing compiles still execute their
// packet through a one-shot plan; they are just not cached.
const maxPlans = 4096

// resetPlans installs a fresh empty plan table for the current snapshot
// pair. Called (under planMu) from publish() after every snapshot swap.
func (r *Runtime) resetPlans(cv *ctrlView) {
	r.planMu.Lock()
	r.planGen++
	r.planTab.Store(&planTable{gen: r.planGen, cv: cv, pv: r.dev.View(), plans: make(map[planKey]*compiledPlan)})
	r.planMu.Unlock()
}

// PlanCompiles returns the number of plan compilations performed.
func (r *Runtime) PlanCompiles() uint64 { return r.ctr.PlanCompiles.Value() }

// compilePlan compiles key's program under tab's snapshot pair and caches
// the result in a republished copy-on-write table. The caller has already
// passed the admission checks for key.fid under tab.cv. If a control commit
// republished the snapshots since the caller loaded tab, the plan is built
// against the caller's (still consistent) pair but not cached — the
// superseded table must not be resurrected over the fresh one.
func (r *Runtime) compilePlan(tab *planTable, key planKey) *compiledPlan {
	r.planMu.Lock()
	defer r.planMu.Unlock()
	cur := r.planTab.Load()
	if cur != tab {
		if pl, ok := cur.plans[key]; ok && cur.cv == tab.cv && cur.pv == tab.pv {
			return pl
		}
		if cur.cv != tab.cv || cur.pv != tab.pv {
			return r.buildPlan(tab.cv, tab.pv, key)
		}
		tab = cur
	}
	if pl, ok := tab.plans[key]; ok {
		return pl
	}
	pl := r.buildPlan(tab.cv, tab.pv, key)
	if len(tab.plans) < maxPlans {
		r.planGen++
		next := &planTable{gen: r.planGen, cv: tab.cv, pv: tab.pv, plans: make(map[planKey]*compiledPlan, len(tab.plans)+1)}
		for k, v := range tab.plans {
			next.plans[k] = v
		}
		next.plans[key] = pl
		r.planTab.Store(next)
	}
	return pl
}

// buildPlan folds privilege and mirror sessions and compiles the device plan
// for one program version under an explicit snapshot pair. Unprivileged
// FIDs have their forwarding-affecting opcodes (SET_DST, FORK, DROP)
// rewritten to NOPs, exactly as a match-table privilege qualifier would
// suppress the actions.
func (r *Runtime) buildPlan(cv *ctrlView, pv *rmt.PipeView, key planKey) *compiledPlan {
	cp := &compiledPlan{
		instrs:      append([]isa.Instruction(nil), key.prog.Instrs...),
		quarantined: cv.quarantined[key.fid],
	}
	mask := ^uint8(0)
	if cv.hasPriv {
		if m, ok := cv.privilege[key.fid]; ok {
			mask = m
		}
	}
	if mask&PrivForwarding == 0 {
		for i := range cp.instrs {
			switch cp.instrs[i].Op {
			case isa.OpSetDst, isa.OpFork, isa.OpDrop:
				cp.instrs[i].Op = isa.OpNop
				cp.suppressed++
			}
		}
	}
	for i := range cp.instrs {
		if cp.instrs[i].Executed {
			cp.preMarked = true
			break
		}
	}
	mirror := func(session uint8) (uint32, bool) {
		port, ok := cv.mirror[mirrorKey(key.fid, session)]
		return port, ok
	}
	cp.rp = r.dev.CompilePlan(key.fid, cp.instrs, pv, mirror)
	if t := r.tel; t != nil {
		cp.lat = t.fidLatency(key.fid)
	}
	r.ctr.PlanCompiles.Inc()
	return cp
}

// execPlan runs one admitted capsule through its compiled plan: PHV fill,
// execution, fault events, output encoding (primary first, then FORK
// clones), and flight sampling. The caller has performed the admission
// checks. The instruction image never enters the PHV: the plan carries it,
// and the encoder rebuilds each output body from the image plus that
// output's exit index.
func (r *Runtime) execPlan(a *packet.Active, pl *compiledPlan, res *ExecResult, sink *ExecSink, cv *ctrlView, fid uint16) {
	phv := res.phv
	phv.Reset()
	phv.FID = fid
	phv.Data = a.Args
	if a.Header.Flags&packet.FlagPreload != 0 {
		phv.MAR = a.Args[2]
		phv.MBR = a.Args[0]
	}
	if tup, ok := packet.ParseFiveTuple(a.Payload); ok {
		phv.TupleWords = tup.WordsArray()
	}
	outs := &res.devOuts
	r.dev.ExecPlan(pl.rp, phv, sink.dev, outs)
	r.ctr.ProgramsRun.Inc()
	if pl.suppressed != 0 {
		r.ctr.PrivSuppressed.Add(pl.suppressed)
	}
	for i, p := range outs.PHVs {
		if p.Faulted {
			r.ctr.Faults.Inc()
			sink.events = append(sink.events, guardEvent{
				Kind: guardEventMemFault, FID: fid,
				Stage: p.FaultStage, Addr: p.FaultAddr,
				Owner: p.FaultOwner, Owned: p.FaultOwned,
			})
		}
		s := res.slot(i)
		encodePlanOutput(a, p, pl, outs.Exits[i], s)
		res.addOutput(s)
		if pl.lat != nil {
			pl.lat.Observe(p.StagesRun)
		}
	}
	if fr := sink.fr; fr != nil {
		// The primary PHV describes the capsule's traversal.
		forced := phv.Faulted || phv.Dropped
		if fr.ShouldSample() || forced {
			v := telemetry.VerdictExecuted
			if phv.Dropped {
				v = telemetry.VerdictDropped
			}
			fr.Record(telemetry.FlightEntry{
				FID: fid, Epoch: cv.epochs[fid], Verdict: v,
				Stages: uint16(phv.StagesRun), Passes: uint8(phv.Passes),
				Faulted: phv.Faulted, Addr: phv.MAR, FaultAddr: phv.FaultAddr,
			})
		}
	}
}

// encodePlanOutput rebuilds one output capsule after a plan execution,
// shrinking executed instruction headers unless the program opted out
// (Section 3.1's packet-shrinking optimization). The output traversed
// exactly the first exit headers, so the shrunk body is the image's tail —
// one append of a slice instead of a per-instruction filter loop.
func encodePlanOutput(in *packet.Active, p *rmt.PHV, pl *compiledPlan, exit int, s *outSlot) {
	hdr := in.Header
	hdr.Flags |= packet.FlagFromSwch
	if p.Complete {
		hdr.Flags |= packet.FlagDone
	}
	if p.ToSender {
		hdr.Flags |= packet.FlagRTS
	}
	if p.Dropped {
		hdr.Flags |= packet.FlagFailed
	}

	s.prog.Name = in.Program.Name
	instrs := pl.instrs
	switch {
	case in.Header.Flags&packet.FlagNoShrink != 0:
		// Keep every header, the traversed prefix marked Executed; marks
		// pre-set on the wire image survive the copy.
		s.prog.Instrs = append(s.prog.Instrs[:0], instrs...)
		for i := 0; i < exit; i++ {
			s.prog.Instrs[i].Executed = true
		}
	case !pl.preMarked:
		s.prog.Instrs = append(s.prog.Instrs[:0], instrs[exit:]...)
	default:
		// Rare: the wire image arrived with Executed bits already set; the
		// shrink drops those headers too.
		s.prog.Instrs = s.prog.Instrs[:0]
		for i, instr := range instrs {
			if i < exit || instr.Executed {
				continue
			}
			s.prog.Instrs = append(s.prog.Instrs, instr)
		}
	}

	s.act = packet.Active{
		Header:  hdr,
		Args:    p.Data,
		Program: &s.prog,
		Payload: in.Payload,
	}
	s.act.Header.SetType(packet.TypeProgram)
	s.out = Output{
		Active:   &s.act,
		ToSender: p.ToSender,
		DstSet:   p.DstSet,
		Dst:      p.Dst,
		Dropped:  p.Dropped,
		IsClone:  p.IsClone,
		Executed: true,
		Latency:  p.Latency,
		Passes:   p.Passes,
	}
}
