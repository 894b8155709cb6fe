package rmt

import (
	"time"

	"activermt/internal/isa"
)

// This file is the pipeline's only execution engine: a program admitted by
// the decoded-program cache is compiled once — against one immutable
// PipeView — into a flattened straight-line plan of resolved operations, and
// every packet runs through that plan. Everything that depends on
// control-plane state (physical stage, register array, grant bounds,
// translation mask/offset, hash seed, ingress/egress position, mirror-session
// port) is folded in at compile time; only the data-dependent work — register
// ALU ops, hashes, branch predication, FORK clones, recirculation accounting
// — runs per packet. execPlanOp is the single definition of each opcode's
// semantics.
//
// A Plan is immutable after CompilePlan returns and is only valid for the
// exact PipeView (and control state) it was compiled against: the owner (the
// runtime's plan table) keys plans by snapshot identity and discards them
// wholesale when a control-plane commit publishes a new view, so a stale
// plan is unreachable by construction.

// planKind discriminates the dispatch shapes of a compiled slot.
type planKind uint8

const (
	// pkOp dispatches on the resolved opcode with folded fields.
	pkOp planKind = iota
	// pkCount counts StageExecuted and does nothing else: NOP slots and
	// translation ops whose FID has no entry in the slot's stage (the
	// instruction runs and finds no entry; the count still lands).
	pkCount
	// pkFork counts StageExecuted and clones the packet (FORK).
	pkFork
	// pkMiss is an opcode with no installed action (EOF in a malformed
	// body, or an undefined opcode): a table miss, neither count nor
	// effect.
	pkMiss
)

// planOp is one resolved instruction slot of a compiled plan.
type planOp struct {
	kind    planKind
	op      isa.Opcode
	operand uint8 // folded operand (already reduced mod its field width)
	label   uint8 // branch-target label carried by this slot
	egress  bool  // physical stage is in the egress pipeline
	mirror  bool  // FORK: the clone is steered to port imm
	stage   uint16
	// imm is the folded immediate of the ops that take one: the
	// MEM_INCREMENT delta (max(operand,1)), the HASH seed (selector or stage
	// seed), the ADDR_MASK mask, the ADDR_OFFSET offset, or the FORK mirror
	// port.
	imm    uint32
	lo, hi uint32 // memory ops: folded protection ∩ array bounds; empty ⇒ always fault
	regs   *RegisterArray
	view   *StageView // fault-attribution lookup (rare path only)
}

// Plan is a compiled straight-line execution plan for one (FID, program
// version) under one published PipeView. Immutable after compilation.
type Plan struct {
	ops       []planOp
	instrs    []isa.Instruction // the compiled image, for trace events
	numStages int
	maxSlots  int
	passLatNs int64
}

// CompilePlan compiles instrs (already privilege-rewritten by the caller)
// for fid against the given published pipeline view. mirror resolves a
// FORK operand naming a mirror session to the session's egress port (nil:
// no sessions). The plan keeps a reference to instrs, which the caller must
// not mutate afterwards.
func (d *Device) CompilePlan(fid uint16, instrs []isa.Instruction, view *PipeView, mirror func(session uint8) (uint32, bool)) *Plan {
	n := d.cfg.NumStages
	pl := &Plan{
		ops:       make([]planOp, len(instrs)),
		instrs:    instrs,
		numStages: n,
		maxSlots:  d.cfg.MaxPasses * n,
		passLatNs: d.cfg.PassLatency.Nanoseconds(),
	}
	for idx, in := range instrs {
		stage := idx % n
		sv := view.StageView(stage)
		o := &pl.ops[idx]
		o.op = in.Op
		o.label = in.Label
		o.stage = uint16(stage)
		o.egress = stage >= d.cfg.NumIngress
		o.kind = pkOp
		switch in.Op {
		case isa.OpNop:
			o.kind = pkCount
		case isa.OpHashdata5Tuple, isa.OpCopyMbr2Mbr, isa.OpCopyMbrMbr2,
			isa.OpCopyMarMbr, isa.OpCopyMbrMar, isa.OpMbrAddMbr2, isa.OpMarAddMbr,
			isa.OpMarAddMbr2, isa.OpMarMbrAddMbr2, isa.OpMbrSubMbr2, isa.OpBitAndMarMbr,
			isa.OpBitOrMbrMbr2, isa.OpMbrEqualsMbr2, isa.OpMax, isa.OpMin, isa.OpRevMin,
			isa.OpSwapMbrMbr2, isa.OpMbrNot, isa.OpReturn, isa.OpCRet, isa.OpCRetI,
			isa.OpDrop, isa.OpRts, isa.OpCRts, isa.OpSetDst:
		case isa.OpMbrLoad, isa.OpMbrStore, isa.OpMbr2Load, isa.OpMarLoad, isa.OpMbrEqualsData:
			o.operand = in.Operand % 4
		case isa.OpCopyHashdataMbr, isa.OpCopyHashdataMbr2:
			o.operand = in.Operand % NumHashWords
		case isa.OpCJump, isa.OpCJumpI, isa.OpUJump:
			o.operand = in.Operand
		case isa.OpMemRead, isa.OpMemWrite, isa.OpMemIncrement, isa.OpMemMinRead, isa.OpMemMinReadInc:
			st := d.stages[stage]
			o.regs = st.Registers
			o.view = sv
			if reg, ok := sv.Region(fid); ok {
				// The grant installer validated Hi-1 against the array, but a
				// directly installed TCAM region may overhang it: clamp so the
				// folded bounds compare equals "protected ∧ in range" exactly.
				o.lo, o.hi = reg.Lo, reg.Hi
				if max := uint32(st.Registers.Len()); o.hi > max {
					o.hi = max
				}
			}
			if in.Op == isa.OpMemIncrement {
				o.imm = uint32(in.Operand)
				if o.imm == 0 {
					o.imm = 1
				}
			}
		case isa.OpAddrMask:
			if t, ok := sv.Translate(fid); ok {
				o.imm = t.Mask
			} else {
				o.kind = pkCount
			}
		case isa.OpAddrOffset:
			if t, ok := sv.Translate(fid); ok {
				o.imm = t.Offset
			} else {
				o.kind = pkCount
			}
		case isa.OpHash:
			o.imm = hashSeed(stage, in.Operand)
		case isa.OpFork:
			o.kind = pkFork
			// A nonzero operand names a mirror session: the clone is
			// steered to the session's egress port if one is installed
			// (Tofino clone sessions are control-plane state).
			if in.Operand != 0 && mirror != nil {
				o.imm, o.mirror = mirror(in.Operand)
			}
		default:
			o.kind = pkMiss
		}
	}
	return pl
}

// PlanOutputs collects the packets one ExecPlan call produced: the primary
// PHV first, then the FORK clones in execution order. Exits[i] is the number
// of instruction headers output i traversed — the executed prefix the
// deparser strips. Clone PHVs are pooled in the value and reused across
// calls, so steady-state execution allocates nothing.
type PlanOutputs struct {
	PHVs  []*PHV
	Exits []int
	spare []*PHV
}

// clone copies p into the pooled PHV of the next output slot.
func (o *PlanOutputs) clone(p *PHV) *PHV {
	i := len(o.PHVs) - 1
	for len(o.spare) <= i {
		o.spare = append(o.spare, &PHV{})
	}
	c := o.spare[i]
	*c = *p
	c.IsClone = true
	return c
}

// ExecPlan runs one packet through a compiled plan: branch skipping,
// recirculation accounting at pass boundaries, FORK clones, the trace hook,
// and the latency model. The outputs (p first) are collected into out.
//
// Latency is modeled at stage granularity — PassLatency/NumStages per stage
// slot traversed — which reproduces the linear growth of Figure 8b; an RTS
// executed at egress charges one extra full pass (the recirculation needed
// to change ports, Section 3.1).
func (d *Device) ExecPlan(pl *Plan, p *PHV, st *ExecStats, out *PlanOutputs) {
	st.ensure(d.cfg.NumStages)
	st.PacketsIn++
	out.PHVs = out.PHVs[:0]
	out.Exits = out.Exits[:0]
	d.runPlan(pl, p, 0, 0, st, out)
}

// runPlan executes p from slot start with extraSlots stage slots already
// charged (a clone's recirculation) and appends it to out, followed by the
// clones it forks (each run to completion before p resumes).
func (d *Device) runPlan(pl *Plan, p *PHV, start, extraSlots int, st *ExecStats, out *PlanOutputs) {
	slot := len(out.PHVs)
	out.PHVs = append(out.PHVs, p)
	out.Exits = append(out.Exits, 0)
	n := pl.numStages
	maxSlots := pl.maxSlots
	nOps := len(pl.ops)
	idx := start
	for !p.Complete && !p.Dropped {
		if idx >= nOps {
			p.Complete = true
			break
		}
		if idx >= maxSlots {
			// Recirculation limit: the switch polices bandwidth inflation
			// by dropping runaway programs.
			p.Dropped = true
			break
		}
		o := &pl.ops[idx]
		skipped := false
		if p.DisabledUntil != 0 {
			// Skipping an untaken branch arm; resume at the label.
			if o.label == p.DisabledUntil {
				p.DisabledUntil = 0
			} else {
				skipped = true
			}
		}
		if !skipped {
			execPlanOp(o, p, st)
			if o.kind == pkFork {
				// The clone resumes at the next logical stage after a
				// recirculation (Section 3.1: instructions that clone
				// packets require recirculation), charged as one extra pass.
				c := out.clone(p)
				if o.mirror {
					c.DstSet, c.Dst = true, o.imm
				}
				st.Recirculations++
				d.runPlan(pl, c, idx+1, n, st, out)
			}
		}
		if d.trace != nil {
			d.trace(TraceEvent{Logical: idx, Stage: int(o.stage), In: pl.instrs[idx], Skipped: skipped,
				MAR: p.MAR, MBR: p.MBR, MBR2: p.MBR2, Complete: p.Complete, Dropped: p.Dropped})
		}
		idx++
		if idx%n == 0 && idx < nOps && idx < maxSlots && !p.Complete && !p.Dropped {
			st.Recirculations++
		}
	}

	out.Exits[slot] = idx
	slots := idx
	if slots < 1 {
		slots = 1 // even an empty program traverses at least one stage
	}
	if p.rtsAtEgress && !p.Dropped {
		// Ports cannot change at egress: one extra pass to apply RTS.
		slots += n
		st.Recirculations++
	}
	slots += extraSlots
	p.StagesRun = slots
	p.Passes = (slots + n - 1) / n
	p.Latency = slotLatency(slots, pl.passLatNs, n)
	if p.Dropped {
		st.PacketsDropped++
	}
}

// MaxStagesRun bounds PHV.StagesRun: the recirculation limit plus one
// extra pass for an RTS at egress and one for a FORK clone.
func (d *Device) MaxStagesRun() int { return (d.cfg.MaxPasses + 2) * d.cfg.NumStages }

// SlotLatency is the modeled latency of a packet that traversed slots stage
// slots, as ExecPlan computes it.
func (d *Device) SlotLatency(slots int) time.Duration {
	return slotLatency(slots, d.cfg.PassLatency.Nanoseconds(), d.cfg.NumStages)
}

func slotLatency(slots int, passLatNs int64, n int) time.Duration {
	return time.Duration(int64(slots) * passLatNs / int64(n))
}

// execPlanOp executes one resolved slot: the single definition of the
// instruction set's semantics, with every control-plane lookup replaced by
// the fields folded at compile time. Memory accesses are protected: a MAR
// outside the FID's region in this stage is a fault, and the packet is
// dropped ("packets that fail execution are dropped", Section 4.3).
func execPlanOp(o *planOp, p *PHV, st *ExecStats) {
	switch o.kind {
	case pkMiss:
		return
	case pkCount, pkFork:
		st.StageExecuted[o.stage]++
		return
	}
	st.StageExecuted[o.stage]++
	switch o.op {
	case isa.OpMbrLoad:
		p.MBR = p.Data[o.operand]
	case isa.OpMbrStore:
		p.Data[o.operand] = p.MBR
	case isa.OpMbr2Load:
		p.MBR2 = p.Data[o.operand]
	case isa.OpMarLoad:
		p.MAR = p.Data[o.operand]
	case isa.OpCopyMbr2Mbr:
		p.MBR2 = p.MBR
	case isa.OpCopyMbrMbr2:
		p.MBR = p.MBR2
	case isa.OpCopyMarMbr:
		p.MAR = p.MBR
	case isa.OpCopyMbrMar:
		p.MBR = p.MAR
	case isa.OpCopyHashdataMbr:
		p.HashData[o.operand] = p.MBR
	case isa.OpCopyHashdataMbr2:
		p.HashData[o.operand] = p.MBR2
	case isa.OpHashdata5Tuple:
		p.HashData = p.TupleWords
	case isa.OpMbrAddMbr2:
		p.MBR += p.MBR2
	case isa.OpMarAddMbr:
		p.MAR += p.MBR
	case isa.OpMarAddMbr2:
		p.MAR += p.MBR2
	case isa.OpMarMbrAddMbr2:
		p.MAR = p.MBR + p.MBR2
	case isa.OpMbrSubMbr2:
		p.MBR -= p.MBR2
	case isa.OpBitAndMarMbr:
		p.MAR &= p.MBR
	case isa.OpBitOrMbrMbr2:
		p.MBR |= p.MBR2
	case isa.OpMbrEqualsMbr2:
		p.MBR ^= p.MBR2
	case isa.OpMbrEqualsData:
		p.MBR ^= p.Data[o.operand]
	case isa.OpMax:
		if p.MBR2 > p.MBR {
			p.MBR = p.MBR2
		}
	case isa.OpMin:
		if p.MBR2 < p.MBR {
			p.MBR = p.MBR2
		}
	case isa.OpRevMin:
		if p.MBR < p.MBR2 {
			p.MBR2 = p.MBR
		}
	case isa.OpSwapMbrMbr2:
		p.MBR, p.MBR2 = p.MBR2, p.MBR
	case isa.OpMbrNot:
		p.MBR = ^p.MBR
	case isa.OpReturn:
		p.Complete = true
	case isa.OpCRet:
		if p.MBR != 0 {
			p.Complete = true
		}
	case isa.OpCRetI:
		if p.MBR == 0 {
			p.Complete = true
		}
	case isa.OpCJump:
		if p.MBR != 0 {
			p.DisabledUntil = o.operand
		}
	case isa.OpCJumpI:
		if p.MBR == 0 {
			p.DisabledUntil = o.operand
		}
	case isa.OpUJump:
		p.DisabledUntil = o.operand
	case isa.OpMemRead:
		addr := p.MAR
		if addr < o.lo || addr >= o.hi {
			planFault(o, p, st, addr)
			return
		}
		st.RegReads[o.stage]++
		p.MBR = o.regs.Get(addr)
		p.MAR++
	case isa.OpMemWrite:
		addr := p.MAR
		if addr < o.lo || addr >= o.hi {
			planFault(o, p, st, addr)
			return
		}
		st.RegWrites[o.stage]++
		o.regs.Set(addr, p.MBR)
		p.MAR++
	case isa.OpMemIncrement:
		addr := p.MAR
		if addr < o.lo || addr >= o.hi {
			planFault(o, p, st, addr)
			return
		}
		st.RegWrites[o.stage]++
		p.MBR = o.regs.Add(addr, o.imm)
	case isa.OpMemMinRead:
		addr := p.MAR
		if addr < o.lo || addr >= o.hi {
			planFault(o, p, st, addr)
			return
		}
		st.RegReads[o.stage]++
		if v := o.regs.Get(addr); v < p.MBR {
			p.MBR = v
		}
	case isa.OpMemMinReadInc:
		addr := p.MAR
		if addr < o.lo || addr >= o.hi {
			planFault(o, p, st, addr)
			return
		}
		st.RegWrites[o.stage]++
		p.MBR = o.regs.Add(addr, 1)
		if p.MBR < p.MBR2 {
			p.MBR2 = p.MBR
		}
	case isa.OpDrop:
		p.Dropped = true
	case isa.OpSetDst:
		p.DstSet = true
		p.Dst = p.MBR
		if o.egress {
			p.rtsAtEgress = true
		}
	case isa.OpRts:
		p.ToSender = true
		if o.egress {
			p.rtsAtEgress = true
		}
	case isa.OpCRts:
		if p.MBR != 0 {
			p.ToSender = true
			if o.egress {
				p.rtsAtEgress = true
			}
		}
	case isa.OpAddrMask:
		p.MAR &= o.imm
	case isa.OpAddrOffset:
		p.MAR += o.imm
	case isa.OpHash:
		p.MAR = FixedHash(o.imm, p.HashData)
	}
}

// planFault applies the memory-protection fault semantics: drop, attribute,
// count.
func planFault(o *planOp, p *PHV, st *ExecStats, addr uint32) {
	st.RegFaults[o.stage]++
	p.Dropped = true
	p.Faulted = true
	p.FaultAddr = addr
	p.FaultStage = int(o.stage)
	p.FaultOwner, p.FaultOwned = o.view.Owner(addr)
}
