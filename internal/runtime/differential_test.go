package runtime

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/rmt"
	"activermt/internal/secapps"
	"activermt/internal/telemetry"
)

// Differential testing: a reference executor with independently written
// semantics (refStep and refEnv below — nothing in it is shared with the
// plan compiler or rmt.execPlanOp) runs the same capsules as the runtime,
// and the two must agree on every wire output, every counter, and every
// register word. The register-only fuzzers pin the stage-sequential model —
// branch skipping across stages and per-stage hash seeding; the full
// fuzzers add switch state: memory protection and faults, translation,
// forwarding, FORK clones and mirror sessions, privilege, quarantine,
// revocation, and passthrough.

// refState mirrors the PHV registers and control flags of one packet.
type refState struct {
	mar, mbr, mbr2 uint32
	data           [4]uint32
	hash           [rmt.NumHashWords]uint32
	tuple          [rmt.NumHashWords]uint32
	complete       bool
	disabledUntil  uint8

	// Forwarding and accounting state (full executor only).
	dropped, faulted, toSender, dstSet, isClone, rtsAtEgress bool
	dst                                                      uint32
	fork                                                     uint8 // FORK executed: operand+1
	exit, stagesRun                                          int
}

// refStep executes one instruction at logical stage idx and reports whether
// it ran (false: predicated off, or the packet already completed). env is
// the switch state memory, translation, and forwarding opcodes need; the
// register-only fuzzers pass nil and never generate those opcodes.
func refStep(s *refState, in isa.Instruction, idx, numStages int, env *refEnv) bool {
	if s.complete {
		return false
	}
	if s.disabledUntil != 0 {
		if in.Label != s.disabledUntil {
			return false
		}
		s.disabledUntil = 0
	}
	phys := idx % numStages
	egress := env != nil && phys >= env.r.Device().NumIngress()
	switch in.Op {
	case isa.OpNop, isa.OpEOF:
	case isa.OpMbrLoad:
		s.mbr = s.data[in.Operand%4]
	case isa.OpMbrStore:
		s.data[in.Operand%4] = s.mbr
	case isa.OpMbr2Load:
		s.mbr2 = s.data[in.Operand%4]
	case isa.OpMarLoad:
		s.mar = s.data[in.Operand%4]
	case isa.OpCopyMbr2Mbr:
		s.mbr2 = s.mbr
	case isa.OpCopyMbrMbr2:
		s.mbr = s.mbr2
	case isa.OpCopyMarMbr:
		s.mar = s.mbr
	case isa.OpCopyMbrMar:
		s.mbr = s.mar
	case isa.OpCopyHashdataMbr:
		s.hash[in.Operand%rmt.NumHashWords] = s.mbr
	case isa.OpCopyHashdataMbr2:
		s.hash[in.Operand%rmt.NumHashWords] = s.mbr2
	case isa.OpHashdata5Tuple:
		s.hash = s.tuple
	case isa.OpMbrAddMbr2:
		s.mbr += s.mbr2
	case isa.OpMarAddMbr:
		s.mar += s.mbr
	case isa.OpMarAddMbr2:
		s.mar += s.mbr2
	case isa.OpMarMbrAddMbr2:
		s.mar = s.mbr + s.mbr2
	case isa.OpMbrSubMbr2:
		s.mbr -= s.mbr2
	case isa.OpBitAndMarMbr:
		s.mar &= s.mbr
	case isa.OpBitOrMbrMbr2:
		s.mbr |= s.mbr2
	case isa.OpMbrEqualsMbr2:
		s.mbr ^= s.mbr2
	case isa.OpMbrEqualsData:
		s.mbr ^= s.data[in.Operand%4]
	case isa.OpMax:
		if s.mbr2 > s.mbr {
			s.mbr = s.mbr2
		}
	case isa.OpMin:
		if s.mbr2 < s.mbr {
			s.mbr = s.mbr2
		}
	case isa.OpRevMin:
		if s.mbr < s.mbr2 {
			s.mbr2 = s.mbr
		}
	case isa.OpSwapMbrMbr2:
		s.mbr, s.mbr2 = s.mbr2, s.mbr
	case isa.OpMbrNot:
		s.mbr = ^s.mbr
	case isa.OpReturn:
		s.complete = true
	case isa.OpCRet:
		if s.mbr != 0 {
			s.complete = true
		}
	case isa.OpCRetI:
		if s.mbr == 0 {
			s.complete = true
		}
	case isa.OpCJump:
		if s.mbr != 0 {
			s.disabledUntil = in.Operand
		}
	case isa.OpCJumpI:
		if s.mbr == 0 {
			s.disabledUntil = in.Operand
		}
	case isa.OpUJump:
		s.disabledUntil = in.Operand
	case isa.OpHash:
		if in.Operand != 0 {
			s.mar = rmt.FixedHash(uint32(in.Operand), s.hash)
		} else {
			s.mar = rmt.StageHash(phys, s.hash)
		}
	case isa.OpMemRead, isa.OpMemWrite, isa.OpMemIncrement, isa.OpMemMinRead, isa.OpMemMinReadInc:
		env.mem(s, in, phys)
	case isa.OpDrop:
		s.dropped = true
	case isa.OpFork:
		s.fork = in.Operand + 1
	case isa.OpSetDst:
		s.dstSet, s.dst = true, s.mbr
		s.rtsAtEgress = s.rtsAtEgress || egress
	case isa.OpRts:
		s.toSender = true
		s.rtsAtEgress = s.rtsAtEgress || egress
	case isa.OpCRts:
		if s.mbr != 0 {
			s.toSender = true
			s.rtsAtEgress = s.rtsAtEgress || egress
		}
	case isa.OpAddrMask:
		if tr, ok := env.r.Device().Stage(phys).TranslateFor(env.fid); ok {
			s.mar &= tr.Mask
		}
	case isa.OpAddrOffset:
		if tr, ok := env.r.Device().Stage(phys).TranslateFor(env.fid); ok {
			s.mar += tr.Offset
		}
	}
	return true
}

// refCounters are the runtime and device counters the reference predicts.
type refCounters struct {
	programsRun, passthrough, faults, quarantineDrops, revokedDrops, privSuppressed uint64
	packetsIn, packetsDropped, recirculations                                       uint64
	stageExecuted, regReads, regWrites, regFaults                                   []uint64
}

// refEnv is the switch state the reference executes against: a runtime
// whose control plane receives the same commits as the one under test but
// never executes a packet itself — the reference reads its builder tables
// and reads and writes its register arrays directly.
type refEnv struct {
	r   *Runtime
	fid uint16
	c   refCounters
}

func newRefEnv(r *Runtime) *refEnv {
	n := r.Device().NumStages()
	return &refEnv{r: r, c: refCounters{
		stageExecuted: make([]uint64, n), regReads: make([]uint64, n),
		regWrites: make([]uint64, n), regFaults: make([]uint64, n),
	}}
}

// mem executes one protected register access in physical stage phys.
func (e *refEnv) mem(s *refState, in isa.Instruction, phys int) {
	st := e.r.Device().Stage(phys)
	reg, ok := st.Prot.Region(e.fid)
	if !ok || s.mar < reg.Lo || s.mar >= reg.Hi || !st.Registers.InRange(s.mar) {
		e.c.regFaults[phys]++
		s.dropped, s.faulted = true, true
		return
	}
	regs := st.Registers
	switch in.Op {
	case isa.OpMemRead:
		e.c.regReads[phys]++
		s.mbr = regs.Get(s.mar)
		s.mar++
	case isa.OpMemWrite:
		e.c.regWrites[phys]++
		regs.Set(s.mar, s.mbr)
		s.mar++
	case isa.OpMemIncrement:
		e.c.regWrites[phys]++
		inc := uint32(in.Operand)
		if inc == 0 {
			inc = 1
		}
		regs.Set(s.mar, regs.Get(s.mar)+inc)
		s.mbr = regs.Get(s.mar)
	case isa.OpMemMinRead:
		e.c.regReads[phys]++
		if v := regs.Get(s.mar); v < s.mbr {
			s.mbr = v
		}
	case isa.OpMemMinReadInc:
		e.c.regWrites[phys]++
		regs.Set(s.mar, regs.Get(s.mar)+1)
		s.mbr = regs.Get(s.mar)
		if s.mbr < s.mbr2 {
			s.mbr2 = s.mbr
		}
	}
}

// run executes prog from slot start with extra stage slots pre-charged and
// appends s and then its clones (each run to completion as it forks) to
// outs.
func (e *refEnv) run(prog []isa.Instruction, s *refState, start, extra int, outs *[]*refState) {
	*outs = append(*outs, s)
	cfg := e.r.Device().Config()
	n, maxSlots := cfg.NumStages, cfg.MaxPasses*cfg.NumStages
	idx := start
	for !s.complete && !s.dropped {
		if idx >= len(prog) {
			s.complete = true
			break
		}
		if idx >= maxSlots {
			s.dropped = true
			break
		}
		if refStep(s, prog[idx], idx, n, e) && prog[idx].Op != isa.OpEOF && int(prog[idx].Op) < isa.NumOpcodes {
			e.c.stageExecuted[idx%n]++
		}
		if s.fork != 0 {
			session := s.fork - 1
			s.fork = 0
			c := *s
			c.isClone = true
			if port, ok := e.r.mirror[mirrorKey(e.fid, session)]; ok && session != 0 {
				c.dstSet, c.dst = true, port
			}
			e.c.recirculations++
			e.run(prog, &c, idx+1, n, outs)
		}
		idx++
		if idx%n == 0 && idx < len(prog) && idx < maxSlots && !s.complete && !s.dropped {
			e.c.recirculations++
		}
	}
	s.exit = idx
	slots := idx
	if slots < 1 {
		slots = 1
	}
	if s.rtsAtEgress && !s.dropped {
		slots += n
		e.c.recirculations++
	}
	s.stagesRun = slots + extra
	if s.dropped {
		e.c.packetsDropped++
	}
}

// execute predicts the outputs of one capsule under the reference runtime's
// current control state.
func (e *refEnv) execute(a *packet.Active) []*Output {
	r := e.r
	lat := r.Device().Config().PassLatency
	fid := a.Header.FID
	refused := func() []*Output {
		act := *a
		act.Header.Flags |= packet.FlagFailed
		return []*Output{{Active: &act, Dropped: true, Latency: lat}}
	}
	switch {
	case r.revoked[fid]:
		e.c.revokedDrops++
		return refused()
	case r.admitted[fid] == nil:
		e.c.passthrough++
		return []*Output{{Active: a, Latency: lat}}
	case r.quarantined[fid] && a.Header.Flags&packet.FlagMemSync == 0:
		e.c.quarantineDrops++
		return refused()
	}
	e.c.programsRun++
	e.c.packetsIn++
	e.fid = fid
	prog := append([]isa.Instruction(nil), a.Program.Instrs...)
	if m, ok := r.privilege[fid]; ok && m&PrivForwarding == 0 {
		for i := range prog {
			if op := prog[i].Op; op == isa.OpSetDst || op == isa.OpFork || op == isa.OpDrop {
				prog[i].Op = isa.OpNop
				e.c.privSuppressed++
			}
		}
	}
	s := &refState{data: a.Args}
	if a.Header.Flags&packet.FlagPreload != 0 {
		s.mar, s.mbr = a.Args[2], a.Args[0]
	}
	if tup, ok := packet.ParseFiveTuple(a.Payload); ok {
		s.tuple = tup.WordsArray()
	}
	var states []*refState
	e.run(prog, s, 0, 0, &states)

	n := r.Device().NumStages()
	outs := make([]*Output, len(states))
	for i, st := range states {
		if st.faulted {
			e.c.faults++
		}
		hdr := a.Header
		hdr.Flags |= packet.FlagFromSwch
		if st.complete {
			hdr.Flags |= packet.FlagDone
		}
		if st.toSender {
			hdr.Flags |= packet.FlagRTS
		}
		if st.dropped {
			hdr.Flags |= packet.FlagFailed
		}
		body := &isa.Program{Name: a.Program.Name}
		for j, in := range prog {
			traversed := j < st.exit
			if a.Header.Flags&packet.FlagNoShrink != 0 {
				in.Executed = in.Executed || traversed
			} else if traversed || in.Executed {
				continue
			}
			body.Instrs = append(body.Instrs, in)
		}
		act := &packet.Active{Header: hdr, Args: st.data, Program: body, Payload: a.Payload}
		act.Header.SetType(packet.TypeProgram)
		outs[i] = &Output{
			Active: act, ToSender: st.toSender, DstSet: st.dstSet, Dst: st.dst,
			Dropped: st.dropped, IsClone: st.isClone, Executed: true,
			Latency: time.Duration(int64(st.stagesRun) * lat.Nanoseconds() / int64(n)),
			Passes:  (st.stagesRun + n - 1) / n,
		}
	}
	return outs
}

// checkAgainst requires r's runtime and device counters, and every register
// word of r, to equal the reference's prediction and state.
func (e *refEnv) checkAgainst(t *testing.T, r *Runtime) {
	t.Helper()
	c := &e.c
	rc := r.Counters()
	got := [...]uint64{rc.ProgramsRun.Value(), rc.Passthrough.Value(), rc.Faults.Value(),
		rc.QuarantineDrops.Value(), rc.RevokedDrops.Value(), rc.PrivSuppressed.Value()}
	want := [...]uint64{c.programsRun, c.passthrough, c.faults, c.quarantineDrops, c.revokedDrops, c.privSuppressed}
	if got != want {
		t.Fatalf("runtime counters (run/pass/fault/quar/revoked/priv) = %v, reference %v", got, want)
	}
	d := r.Device()
	dc := d.Counters()
	if in, dropped, recirc := dc.PacketsIn.Value(), dc.PacketsDropped.Value(), dc.Recirculations.Value(); in != c.packetsIn || dropped != c.packetsDropped || recirc != c.recirculations {
		t.Fatalf("device counters %d/%d/%d, reference %d/%d/%d",
			in, dropped, recirc, c.packetsIn, c.packetsDropped, c.recirculations)
	}
	for s := 0; s < d.NumStages(); s++ {
		st, ref := d.Stage(s), e.r.Device().Stage(s)
		exec, reads, writes, faults := dc.StageExecuted[s].Value(), dc.RegReads[s].Value(), dc.RegWrites[s].Value(), dc.RegFaults[s].Value()
		if exec != c.stageExecuted[s] || reads != c.regReads[s] || writes != c.regWrites[s] || faults != c.regFaults[s] {
			t.Fatalf("stage %d counters exec/read/write/fault %d/%d/%d/%d, reference %d/%d/%d/%d", s,
				exec, reads, writes, faults,
				c.stageExecuted[s], c.regReads[s], c.regWrites[s], c.regFaults[s])
		}
		n := uint32(st.Registers.Len())
		gw, _ := st.Registers.Snapshot(0, n)
		rw, _ := ref.Registers.Snapshot(0, n)
		for i := range gw {
			if gw[i] != rw[i] {
				t.Fatalf("stage %d word %d = %#x, reference %#x", s, i, gw[i], rw[i])
			}
		}
	}
}

// safeOps are the opcodes the generator draws from: everything except
// memory access, forwarding, EOF, and translation (those need switch
// state).
var safeOps = []isa.Opcode{
	isa.OpNop, isa.OpMbrLoad, isa.OpMbrStore, isa.OpMbr2Load, isa.OpMarLoad,
	isa.OpCopyMbr2Mbr, isa.OpCopyMbrMbr2, isa.OpCopyMarMbr, isa.OpCopyMbrMar,
	isa.OpCopyHashdataMbr, isa.OpCopyHashdataMbr2,
	isa.OpMbrAddMbr2, isa.OpMarAddMbr, isa.OpMarAddMbr2, isa.OpMarMbrAddMbr2,
	isa.OpMbrSubMbr2, isa.OpBitAndMarMbr, isa.OpBitOrMbrMbr2,
	isa.OpMbrEqualsMbr2, isa.OpMbrEqualsData,
	isa.OpMax, isa.OpMin, isa.OpRevMin, isa.OpSwapMbrMbr2, isa.OpMbrNot,
	isa.OpCRet, isa.OpCRetI, isa.OpHash,
}

// genProgram builds a random valid program, occasionally with forward
// branches.
func genProgram(rng *rand.Rand) *isa.Program {
	n := 3 + rng.Intn(35)
	p := &isa.Program{Name: "fuzz"}
	for i := 0; i < n; i++ {
		in := isa.Instruction{Op: safeOps[rng.Intn(len(safeOps))]}
		if in.Op.HasOperand() {
			in.Operand = uint8(rng.Intn(4))
		}
		p.Instrs = append(p.Instrs, in)
	}
	// Sprinkle up to two forward branches with labels.
	label := uint8(1)
	for b := 0; b < 2 && label <= isa.MaxLabel; b++ {
		src := rng.Intn(len(p.Instrs))
		tgt := src + 1 + rng.Intn(len(p.Instrs)-src)
		if tgt >= len(p.Instrs) {
			continue
		}
		if p.Instrs[tgt].Label != 0 || p.Instrs[src].Op.IsBranch() {
			continue
		}
		branchOps := []isa.Opcode{isa.OpCJump, isa.OpCJumpI, isa.OpUJump}
		p.Instrs[src] = isa.Instruction{Op: branchOps[rng.Intn(3)], Operand: label}
		p.Instrs[tgt].Label = label
		label++
	}
	if err := p.Validate(); err != nil {
		// Regenerate on the rare invalid combination.
		return genProgram(rng)
	}
	return p
}

// TestDifferentialInterpreter runs random register-only programs (forward
// branches and hashing included) through the packet path and refStep and
// requires identical data fields.
func TestDifferentialInterpreter(t *testing.T) {
	r := testRuntime(t)
	r.AdmitStateless(1)
	numStages := r.Device().NumStages()
	maxSlots := r.Device().Config().MaxPasses * numStages
	rng := rand.New(rand.NewSource(20230910))

	for trial := 0; trial < 3000; trial++ {
		p := genProgram(rng)
		args := [4]uint32{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()}

		// Reference execution.
		ref := &refState{data: args}
		for idx, in := range p.Instrs {
			if idx >= maxSlots {
				break
			}
			refStep(ref, in, idx, numStages, nil)
			if ref.complete {
				break
			}
		}

		// Pipeline execution.
		a := &packet.Active{Header: packet.ActiveHeader{FID: 1}, Args: args, Program: p.Clone()}
		a.Header.SetType(packet.TypeProgram)
		a.Header.Flags |= packet.FlagNoShrink
		outs := execProgram(r, a)
		if len(outs) != 1 {
			t.Fatalf("trial %d: %d outputs", trial, len(outs))
		}
		out := outs[0]
		if out.Dropped {
			// Programs longer than the recirculation limit drop; the
			// reference stops at maxSlots, so only compare data below.
			continue
		}
		if out.Active.Args != ref.data {
			t.Fatalf("trial %d: data mismatch\nprogram:\n%s\npipeline: %#v\nreference: %#v",
				trial, isa.Disassemble(p), out.Active.Args, ref.data)
		}
	}
}

// specOps extends safeOps with the switch-state opcodes the plan compiler
// folds at compile time: memory accesses, translation, and forwarding —
// the surface where a folding bug would diverge from the reference.
var specOps = append(append([]isa.Opcode{}, safeOps...),
	isa.OpMemRead, isa.OpMemWrite, isa.OpMemIncrement, isa.OpMemMinRead, isa.OpMemMinReadInc,
	isa.OpAddrMask, isa.OpAddrOffset, isa.OpHashdata5Tuple,
	isa.OpRts, isa.OpCRts, isa.OpSetDst, isa.OpDrop, isa.OpReturn,
)

// genSpecProgram builds a random valid program over the full instruction
// surface, with occasional FORKs (clones, mirror sessions) and forward
// branches.
func genSpecProgram(rng *rand.Rand) *isa.Program {
	n := 3 + rng.Intn(30)
	p := &isa.Program{Name: "spec-fuzz"}
	for i := 0; i < n; i++ {
		op := specOps[rng.Intn(len(specOps))]
		if rng.Intn(40) == 0 {
			op = isa.OpFork
		}
		in := isa.Instruction{Op: op}
		// FORK's operand names a mirror session and HASH's a fixed hash
		// function, though neither is a data-field operand.
		if in.Op.HasOperand() || op == isa.OpFork || op == isa.OpHash {
			in.Operand = uint8(rng.Intn(6))
		}
		p.Instrs = append(p.Instrs, in)
	}
	label := uint8(1)
	for b := 0; b < 2 && label <= isa.MaxLabel; b++ {
		src := rng.Intn(len(p.Instrs))
		tgt := src + 1 + rng.Intn(len(p.Instrs)-src)
		if tgt >= len(p.Instrs) {
			continue
		}
		if p.Instrs[tgt].Label != 0 || p.Instrs[src].Op.IsBranch() {
			continue
		}
		branchOps := []isa.Opcode{isa.OpCJump, isa.OpCJumpI, isa.OpUJump}
		p.Instrs[src] = isa.Instruction{Op: branchOps[rng.Intn(3)], Operand: label}
		p.Instrs[tgt].Label = label
		label++
	}
	if err := p.Validate(); err != nil {
		return genSpecProgram(rng)
	}
	return p
}

// fiveTuplePayload is an IPv4/UDP payload whose 5-tuple the runtime loads
// into the PHV (the source COPY_HASHDATA_5TUPLE reads).
func fiveTuplePayload(rng *rand.Rand) []byte {
	ip := packet.IPv4Header{TotalLen: 28, TTL: 64, Protocol: packet.ProtoUDP,
		Src: netip.AddrFrom4([4]byte{10, 0, byte(rng.Intn(256)), 1}),
		Dst: netip.AddrFrom4([4]byte{10, 0, 0, byte(rng.Intn(256))})}
	udp := packet.UDPHeader{SrcPort: uint16(rng.Intn(65536)), DstPort: 53, Length: 8}
	return udp.Encode(ip.Encode(nil))
}

// TestDifferentialPlanVsReference drives the runtime and the reference
// executor through the same random stream of programs, grant reinstalls
// (epoch bumps, moved regions), quarantine flips, privilege changes, mirror
// session changes, revocations, and unadmitted FIDs, and requires
// bit-identical wire outputs plus identical runtime counters, device
// counters, and register memory. Each capsule runs twice so both the
// compile-inline and the cached-plan entries are exercised.
func TestDifferentialPlanVsReference(t *testing.T) {
	ri := testRuntime(t) // reference state
	rs := testRuntime(t) // under test
	// With telemetry attached every output's stage-slot count indexes the
	// per-FID latency levels, so the fuzz also proves MaxStagesRun bounds
	// StagesRun (an out-of-range index would panic).
	rs.AttachTelemetry(telemetry.NewRegistry())
	ref := newRefEnv(ri)
	res, sink := NewExecResult(), rs.NewExecSink()
	rng := rand.New(rand.NewSource(0xA11CE))

	grant := func(fid uint16, lo, hi uint32) {
		for _, r := range []*Runtime{ri, rs} {
			g := Grant{FID: fid}
			for l := 0; l < 10; l++ {
				g.Accesses = append(g.Accesses, AccessGrant{Logical: l, Lo: lo, Hi: hi})
			}
			if _, err := r.InstallGrant(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	grant(1, 0, 512)
	grant(2, 512, 1024)
	grant(3, 1024, 1536)
	for fid := uint16(1); fid <= 3; fid++ {
		for session := uint8(1); session <= 5; session++ {
			port := uint32(rng.Intn(8))
			ri.SetMirrorSession(fid, session, port)
			rs.SetMirrorSession(fid, session, port)
		}
	}

	forks, mirrored := 0, 0
	for trial := 0; trial < 2000; trial++ {
		// Occasionally commit control-plane changes, identically on both:
		// each one republishes the snapshots and invalidates rs's plans.
		fid := uint16(1 + rng.Intn(3))
		switch rng.Intn(20) {
		case 0: // epoch bump + region move
			base := uint32(rng.Intn(6)) * 512
			grant(fid, base, base+512)
		case 1: // quarantine flip
			for _, r := range []*Runtime{ri, rs} {
				if r.Quarantined(fid) {
					r.Reactivate(fid)
				} else {
					r.Deactivate(fid)
				}
			}
		case 2: // privilege change
			mask := uint8(0)
			if rng.Intn(2) == 0 {
				mask = PrivForwarding
			}
			ri.SetPrivilege(fid, mask)
			rs.SetPrivilege(fid, mask)
		case 3: // revocation (a later grant() re-admits)
			ri.RemoveGrant(fid)
			rs.RemoveGrant(fid)
		case 4: // mirror session install or removal
			session, port, clear := uint8(1+rng.Intn(5)), uint32(rng.Intn(8)), rng.Intn(3) == 0
			for _, r := range []*Runtime{ri, rs} {
				if clear {
					r.ClearMirrorSession(fid, session)
				} else {
					r.SetMirrorSession(fid, session, port)
				}
			}
		}

		p := genSpecProgram(rng)
		fid = uint16(1 + rng.Intn(4)) // FID 4 is never admitted: passthrough
		args := [4]uint32{rng.Uint32(), rng.Uint32(), uint32(rng.Intn(2048)), rng.Uint32()}
		var flags uint16
		if rng.Intn(2) == 0 {
			flags |= packet.FlagPreload
		}
		if rng.Intn(3) == 0 {
			flags |= packet.FlagNoShrink
		}
		var payload []byte
		if rng.Intn(2) == 0 {
			payload = fiveTuplePayload(rng)
		}

		for rep := 0; rep < 2; rep++ {
			ai := progPacket(fid, p, args)
			as := progPacket(fid, p, args)
			ai.Header.Flags |= flags
			as.Header.Flags |= flags
			ai.Payload, as.Payload = payload, payload
			want := ref.execute(ai)
			got := execFast(rs, as, res, sink)
			compareOutputs(t, fmt.Sprintf("trial %d rep %d", trial, rep), want, got)
			for _, o := range got {
				if o.IsClone {
					forks++
					if o.DstSet {
						mirrored++
					}
				}
			}
		}
	}
	runs := rs.Counters().ProgramsRun.Value()
	if runs == 0 || forks == 0 || mirrored == 0 {
		t.Fatalf("fuzz stream too narrow: %d plan runs, %d clones, %d mirrored", runs, forks, mirrored)
	}
	t.Logf("%d plan runs, %d clones (%d mirrored)", runs, forks, mirrored)
	ref.checkAgainst(t, rs)
}

// TestDifferentialRegisteredApps pins every registered exemplar program —
// the apps package and the secapps security/measurement suite — to
// bit-identical reference vs. plan execution. The random fuzzers above
// explore the instruction space; this suite guarantees the programs we
// actually ship (including the multi-pass claim arm, the DROP-bearing rate
// limiter, and the mirror FORK) never diverge from the reference.
func TestDifferentialRegisteredApps(t *testing.T) {
	ri := testRuntime(t) // reference state
	rs := testRuntime(t) // under test
	ref := newRefEnv(ri)
	res, sink := NewExecResult(), rs.NewExecSink()
	rng := rand.New(rand.NewSource(0x5ECA))

	progs := append(apps.Programs(), secapps.Programs()...)
	if len(progs) < 12 {
		t.Fatalf("registered programs = %d, registry looks truncated", len(progs))
	}
	for pi, tmpl := range progs {
		fid := uint16(100 + pi)
		acc := tmpl.MemoryAccessIndices()
		lo := uint32((pi % 8) * 512)
		for _, r := range []*Runtime{ri, rs} {
			r.SetMirrorSession(fid, apps.MirrorSessionID, 7)
			if len(acc) == 0 {
				r.AdmitStateless(fid)
				continue
			}
			g := Grant{FID: fid}
			for _, idx := range acc {
				g.Accesses = append(g.Accesses, AccessGrant{Logical: idx, Lo: lo, Hi: lo + 512})
			}
			if _, err := r.InstallGrant(g); err != nil {
				t.Fatalf("%s: grant: %v", tmpl.Name, err)
			}
		}
		for trial := 0; trial < 200; trial++ {
			args := [4]uint32{rng.Uint32(), rng.Uint32(), lo + uint32(rng.Intn(600)), rng.Uint32()}
			var flags uint16
			if rng.Intn(3) == 0 {
				flags |= packet.FlagNoShrink
			}
			payload := fiveTuplePayload(rng)
			// Each capsule runs twice so both the compile-inline and the
			// cached-plan entries are exercised.
			for rep := 0; rep < 2; rep++ {
				ai := progPacket(fid, tmpl.Clone(), args)
				as := progPacket(fid, tmpl.Clone(), args)
				ai.Header.Flags |= flags
				as.Header.Flags |= flags
				ai.Payload, as.Payload = payload, payload
				want := ref.execute(ai)
				got := execFast(rs, as, res, sink)
				compareOutputs(t, fmt.Sprintf("%s trial %d rep %d", tmpl.Name, trial, rep), want, got)
			}
		}
	}
	if rs.Counters().ProgramsRun.Value() == 0 {
		t.Fatal("plan path never ran")
	}
	ref.checkAgainst(t, rs)
}

func TestDifferentialBranchDense(t *testing.T) {
	// Branch-heavy programs: stress the disabled-until-label machinery.
	r := testRuntime(t)
	r.AdmitStateless(1)
	rng := rand.New(rand.NewSource(42))
	numStages := r.Device().NumStages()

	for trial := 0; trial < 1500; trial++ {
		p := &isa.Program{Name: "branchy"}
		// Alternating loads and conditional jumps.
		label := uint8(1)
		for i := 0; i < 16; i++ {
			switch rng.Intn(3) {
			case 0:
				p.Instrs = append(p.Instrs, isa.Instruction{Op: isa.OpMbrLoad, Operand: uint8(rng.Intn(4))})
			case 1:
				p.Instrs = append(p.Instrs, isa.Instruction{Op: isa.OpMbrNot})
			case 2:
				p.Instrs = append(p.Instrs, isa.Instruction{Op: isa.OpNop})
			}
		}
		for b := 0; b < 3 && label <= isa.MaxLabel; b++ {
			src := rng.Intn(len(p.Instrs) - 1)
			tgt := src + 1 + rng.Intn(len(p.Instrs)-src-1)
			if p.Instrs[tgt].Label != 0 || p.Instrs[src].Op.IsBranch() {
				continue
			}
			ops := []isa.Opcode{isa.OpCJump, isa.OpCJumpI, isa.OpUJump}
			p.Instrs[src] = isa.Instruction{Op: ops[rng.Intn(3)], Operand: label}
			p.Instrs[tgt].Label = label
			label++
		}
		if p.Validate() != nil {
			continue
		}
		args := [4]uint32{rng.Uint32() & 1, rng.Uint32(), rng.Uint32(), rng.Uint32()}
		ref := &refState{data: args}
		for idx, in := range p.Instrs {
			refStep(ref, in, idx, numStages, nil)
			if ref.complete {
				break
			}
		}
		a := &packet.Active{Header: packet.ActiveHeader{FID: 1}, Args: args, Program: p.Clone()}
		a.Header.SetType(packet.TypeProgram)
		out := execProgram(r, a)[0]
		if out.Active.Args != ref.data {
			t.Fatalf("trial %d mismatch\n%s\npipeline %#v\nref %#v", trial, isa.Disassemble(p), out.Active.Args, ref.data)
		}
	}
}
