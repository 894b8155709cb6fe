package rmt

import (
	"testing"
	"testing/quick"
	"time"

	"activermt/internal/isa"
)

func TestPrefixCountBasics(t *testing.T) {
	cases := []struct {
		lo, hi uint32
		want   int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 256, 1},   // aligned power of two: one prefix
		{256, 512, 1}, // aligned
		{0, 3, 2},     // [0,2) + [2,3)
		{1, 2, 1},
		{1, 16, 4},      // 1,2-4,4-8,8-16
		{5, 21, 5},      // 5-6,6-8,8-16,16-20,20-21
		{0, 1 << 17, 1}, // whole 94K-ish space rounded up
	}
	for _, c := range cases {
		if got := PrefixCount(c.lo, c.hi); got != c.want {
			t.Errorf("PrefixCount(%d,%d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestPrefixCountProperties(t *testing.T) {
	// The expansion of [lo,hi) never exceeds 2*W-2 entries and is at least
	// 1 for nonempty ranges; it covers exactly hi-lo addresses.
	f := func(a, b uint16) bool {
		lo, hi := uint32(a), uint32(a)+uint32(b)
		n := PrefixCount(lo, hi)
		if lo == hi {
			return n == 0
		}
		return n >= 1 && n <= 2*32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTCAMInstallLookupRemove(t *testing.T) {
	tc := NewTCAM(64)
	if err := tc.Install(Region{FID: 1, Lo: 0, Hi: 256}); err != nil {
		t.Fatal(err)
	}
	if err := tc.Install(Region{FID: 2, Lo: 256, Hi: 512}); err != nil {
		t.Fatal(err)
	}
	if !tc.Lookup(1, 0) || !tc.Lookup(1, 255) || tc.Lookup(1, 256) {
		t.Error("fid 1 range check failed")
	}
	if !tc.Lookup(2, 256) || tc.Lookup(2, 512) || tc.Lookup(3, 100) {
		t.Error("fid 2/3 range check failed")
	}
	if tc.Len() != 2 {
		t.Errorf("Len = %d", tc.Len())
	}
	freed := tc.Remove(1)
	if freed != 1 {
		t.Errorf("Remove freed %d entries, want 1", freed)
	}
	if tc.Lookup(1, 0) {
		t.Error("fid 1 still matches after removal")
	}
	if tc.Remove(1) != 0 {
		t.Error("double remove freed entries")
	}
}

func TestTCAMCapacity(t *testing.T) {
	tc := NewTCAM(4)
	// [5,21) costs 5 entries > capacity 4.
	err := tc.Install(Region{FID: 1, Lo: 5, Hi: 21})
	if err == nil {
		t.Fatal("over-capacity install accepted")
	}
	if _, ok := err.(*ErrTCAMFull); !ok {
		t.Fatalf("error type %T, want *ErrTCAMFull", err)
	}
	// Aligned region costs 1.
	if err := tc.Install(Region{FID: 1, Lo: 0, Hi: 4}); err != nil {
		t.Fatal(err)
	}
	if tc.Used() != 1 {
		t.Errorf("Used = %d, want 1", tc.Used())
	}
	// Replacement frees the old cost first.
	if err := tc.Install(Region{FID: 1, Lo: 4, Hi: 8}); err != nil {
		t.Fatalf("replacement rejected: %v", err)
	}
	if tc.Used() != 1 {
		t.Errorf("Used after replace = %d, want 1", tc.Used())
	}
	if tc.Lookup(1, 2) || !tc.Lookup(1, 5) {
		t.Error("replacement did not take effect")
	}
	if err := tc.Install(Region{FID: 2, Lo: 8, Hi: 4}); err == nil {
		t.Error("inverted region accepted")
	}
}

func TestTCAMMaxRegionsHint(t *testing.T) {
	tc := NewTCAM(2048)
	if got := tc.MaxRegionsHint(0); got != 0 {
		t.Errorf("hint(0) = %d", got)
	}
	if got := tc.MaxRegionsHint(256); got <= 0 || got > 2048 {
		t.Errorf("hint(256) = %d out of range", got)
	}
}

func TestRegisterArray(t *testing.T) {
	r := NewRegisterArray(16)
	if r.Len() != 16 || !r.InRange(15) || r.InRange(16) {
		t.Fatal("bounds wrong")
	}
	r.Set(3, 42)
	if got := r.Get(3); got != 42 {
		t.Errorf("Get = %d", got)
	}
	if got := r.Add(3, 5); got != 47 {
		t.Errorf("Add = %d", got)
	}
	snap, err := r.Snapshot(2, 5)
	if err != nil || len(snap) != 3 || snap[1] != 47 {
		t.Errorf("Snapshot = %v, %v", snap, err)
	}
	if err := r.Restore(10, []uint32{7, 8}); err != nil {
		t.Fatal(err)
	}
	if r.Get(11) != 8 {
		t.Error("Restore did not land")
	}
	if err := r.Zero(10, 12); err != nil {
		t.Fatal(err)
	}
	if r.Get(10) != 0 || r.Get(11) != 0 {
		t.Error("Zero did not clear")
	}
	// Bounds errors.
	if _, err := r.Snapshot(5, 2); err == nil {
		t.Error("inverted snapshot accepted")
	}
	if _, err := r.Snapshot(0, 17); err == nil {
		t.Error("oversize snapshot accepted")
	}
	if err := r.Restore(15, []uint32{1, 2}); err == nil {
		t.Error("oversize restore accepted")
	}
	if err := r.Zero(0, 17); err == nil {
		t.Error("oversize zero accepted")
	}
}

func testDevice(t *testing.T) *Device {
	t.Helper()
	cfg := DefaultConfig()
	cfg.StageWords = 1024 // keep tests light
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// run compiles prog against the device's published view and executes one
// packet through the plan, flushing the counters into the device's ledger.
func run(d *Device, p *PHV, prog []isa.Instruction) *PlanOutputs {
	return runMirrored(d, p, prog, nil)
}

func runMirrored(d *Device, p *PHV, prog []isa.Instruction, mirror func(uint8) (uint32, bool)) *PlanOutputs {
	pl := d.CompilePlan(p.FID, prog, d.View(), mirror)
	st := NewExecStats(d.NumStages())
	out := &PlanOutputs{}
	d.ExecPlan(pl, p, st, out)
	st.FlushInto(d)
	return out
}

func nops(n int) []isa.Instruction {
	out := make([]isa.Instruction, n)
	for i := range out {
		out[i] = isa.Instruction{Op: isa.OpNop}
	}
	return out
}

func TestExecLatencyLinear(t *testing.T) {
	d := testDevice(t)
	var prev time.Duration
	for _, n := range []int{10, 20, 30, 40} {
		p := &PHV{}
		outs := run(d, p, append(nops(n-1), isa.Instruction{Op: isa.OpReturn}))
		if len(outs.PHVs) != 1 || !p.Complete || p.Dropped {
			t.Fatalf("n=%d: outs=%d complete=%v dropped=%v", n, len(outs.PHVs), p.Complete, p.Dropped)
		}
		if p.StagesRun != n {
			t.Errorf("n=%d: StagesRun = %d", n, p.StagesRun)
		}
		if p.Latency <= prev {
			t.Errorf("n=%d: latency %v not increasing (prev %v)", n, p.Latency, prev)
		}
		prev = p.Latency
	}
	// 20 instructions = exactly one pass = PassLatency.
	p := &PHV{}
	run(d, p, nops(20))
	if p.Latency != DefaultPassLatency {
		t.Errorf("one-pass latency = %v, want %v", p.Latency, DefaultPassLatency)
	}
	if p.Passes != 1 {
		t.Errorf("Passes = %d, want 1", p.Passes)
	}
}

func TestExecRecirculation(t *testing.T) {
	d := testDevice(t)
	p := &PHV{}
	run(d, p, nops(45)) // 3 passes
	if p.Passes != 3 {
		t.Errorf("Passes = %d, want 3", p.Passes)
	}
	if got := d.Counters().Recirculations.Value(); got != 2 {
		t.Errorf("Recirculations = %d, want 2", got)
	}
	if !p.Complete {
		t.Error("implicit completion missing")
	}
}

func TestExecRecirculationLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StageWords = 64
	cfg.MaxPasses = 2
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &PHV{}
	run(d, p, nops(100)) // needs 5 passes > 2 allowed
	if !p.Dropped {
		t.Fatal("runaway program not dropped")
	}
	if p.StagesRun != 40 {
		t.Errorf("StagesRun = %d, want 40", p.StagesRun)
	}
	if got := d.Counters().PacketsDropped.Value(); got != 1 {
		t.Errorf("PacketsDropped = %d", got)
	}
}

func TestExecDropInstruction(t *testing.T) {
	d := testDevice(t)
	p := &PHV{}
	outs := run(d, p, append(nops(4), isa.Instruction{Op: isa.OpDrop}))
	if !p.Dropped || len(outs.PHVs) != 1 {
		t.Fatal("DROP did not drop")
	}
	if p.StagesRun != 5 {
		t.Errorf("StagesRun = %d, want 5", p.StagesRun)
	}
}

func TestExecBranchSkipsUntilLabel(t *testing.T) {
	d := testDevice(t)
	// MBR=1 -> CJUMP taken -> the MBR_NOT in the skipped arm must not run;
	// execution resumes at the labeled instruction.
	prog := []isa.Instruction{
		{Op: isa.OpMbrLoad, Operand: 0}, // MBR <- 1
		{Op: isa.OpCJump, Operand: 1},   // jump L1
		{Op: isa.OpMbrNot},              // skipped
		{Op: isa.OpMbrNot},              // skipped
		{Op: isa.OpMbrNot, Label: 1},    // L1: executes
		{Op: isa.OpReturn},
	}
	p := &PHV{Data: [4]uint32{1}}
	run(d, p, prog)
	if p.MBR != ^uint32(1) {
		t.Errorf("MBR = %#x, want %#x (exactly one NOT)", p.MBR, ^uint32(1))
	}
	// Branch not taken: all three NOTs run.
	p2 := &PHV{Data: [4]uint32{0}}
	run(d, p2, prog)
	if p2.MBR != ^uint32(0) { // three NOTs of 0 toggle thrice
		t.Errorf("untaken branch: MBR = %#x, want %#x", p2.MBR, ^uint32(0))
	}
}

func TestExecBranchAcrossPasses(t *testing.T) {
	d := testDevice(t)
	// Jump from pass 0 to a label in pass 1.
	prog := append([]isa.Instruction{
		{Op: isa.OpMbrLoad, Operand: 0}, // MBR <- 1
		{Op: isa.OpCJump, Operand: 2},
	}, nops(25)...)
	prog = append(prog, isa.Instruction{Op: isa.OpMbrNot, Label: 2}, isa.Instruction{Op: isa.OpReturn})
	p := &PHV{Data: [4]uint32{1}}
	run(d, p, prog)
	if !p.Complete || p.Dropped {
		t.Fatal("cross-pass branch did not complete")
	}
	if p.MBR != ^uint32(1) {
		t.Errorf("MBR = %#x, want %#x", p.MBR, ^uint32(1))
	}
	if p.Passes != 2 {
		t.Errorf("Passes = %d, want 2", p.Passes)
	}
}

func TestExecFork(t *testing.T) {
	d := testDevice(t)
	prog := []isa.Instruction{
		{Op: isa.OpFork},
		{Op: isa.OpMbrNot},
		{Op: isa.OpReturn},
	}
	p := &PHV{}
	outs := run(d, p, prog)
	if len(outs.PHVs) != 2 || outs.PHVs[0] != p {
		t.Fatalf("outputs = %d, want the primary then one clone", len(outs.PHVs))
	}
	clone := outs.PHVs[1]
	if !clone.IsClone || clone.Dropped || p.IsClone {
		t.Error("clone flags wrong")
	}
	if clone.MBR != ^uint32(0) {
		t.Errorf("clone did not continue execution: MBR = %#x", clone.MBR)
	}
	if p.MBR != ^uint32(0) {
		t.Errorf("primary did not continue execution: MBR = %#x", p.MBR)
	}
	if clone.Latency <= p.Latency {
		t.Errorf("clone latency %v should exceed primary %v (recirculation)", clone.Latency, p.Latency)
	}
	// Both traverse all three headers; the clone pays one extra pass.
	if outs.Exits[0] != 3 || outs.Exits[1] != 3 {
		t.Errorf("exits = %v, want [3 3]", outs.Exits)
	}
	if got := d.Counters().Recirculations.Value(); clone.StagesRun != 3+20 || got != 1 {
		t.Errorf("clone StagesRun = %d (want 23), recirculations = %d (want 1)", clone.StagesRun, got)
	}
}

func TestExecRTSAtEgressCostsExtraPass(t *testing.T) {
	d := testDevice(t)
	// RTS in ingress: no penalty.
	pIn := &PHV{}
	run(d, pIn, append(nops(5), isa.Instruction{Op: isa.OpRts}, isa.Instruction{Op: isa.OpReturn}))
	if pIn.StagesRun != 7 {
		t.Errorf("ingress RTS StagesRun = %d, want 7", pIn.StagesRun)
	}
	// RTS at egress (stage 15): one extra pass.
	pEg := &PHV{}
	run(d, pEg, append(nops(15), isa.Instruction{Op: isa.OpRts}, isa.Instruction{Op: isa.OpReturn}))
	if pEg.StagesRun != 17+20 {
		t.Errorf("egress RTS StagesRun = %d, want %d", pEg.StagesRun, 37)
	}
	if !pEg.ToSender {
		t.Error("ToSender unset")
	}
}

func TestExecEmptyProgram(t *testing.T) {
	d := testDevice(t)
	p := &PHV{}
	outs := run(d, p, nil)
	if len(outs.PHVs) != 1 || !p.Complete {
		t.Fatal("empty program mishandled")
	}
	if p.StagesRun != 1 || p.Passes != 1 {
		t.Errorf("StagesRun=%d Passes=%d, want 1/1", p.StagesRun, p.Passes)
	}
}

func TestExecMarksExecutedFlags(t *testing.T) {
	d := testDevice(t)
	p := &PHV{}
	outs := run(d, p, append(nops(3), isa.Instruction{Op: isa.OpReturn}, isa.Instruction{Op: isa.OpNop}))
	// The first four headers (through RETURN) are traversed; the
	// post-RETURN header is not.
	if outs.Exits[0] != 4 {
		t.Errorf("executed prefix = %d headers, want 4", outs.Exits[0])
	}
}

func TestExecUninstalledOpcodeIsNoop(t *testing.T) {
	d := testDevice(t)
	// EOF has no action: a table miss with neither effect nor count.
	p := &PHV{}
	run(d, p, []isa.Instruction{{Op: isa.OpEOF}, {Op: isa.OpEOF}, {Op: isa.OpEOF}})
	if !p.Complete || p.Dropped {
		t.Error("uninstalled opcodes should pass through")
	}
	for s := 0; s < 3; s++ {
		if got := d.Counters().StageExecuted[s].Value(); got != 0 {
			t.Errorf("stage %d counted %d executions of a missing action", s, got)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{},
		{NumStages: 20, NumIngress: 0, StageWords: 10, MaxPasses: 1},
		{NumStages: 10, NumIngress: 11, StageWords: 10, MaxPasses: 1},
		{NumStages: 20, NumIngress: 10, StageWords: 0, MaxPasses: 1},
		{NumStages: 20, NumIngress: 10, StageWords: 10, MaxPasses: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestHashStageIndependence(t *testing.T) {
	d := testDevice(t)
	words := [NumHashWords]uint32{1, 2, 3, 4}
	// hashAt runs one HASH with selector sel in physical stage s.
	hashAt := func(s int, sel uint8) uint32 {
		p := &PHV{HashData: words}
		run(d, p, append(nops(s), isa.Instruction{Op: isa.OpHash, Operand: sel}))
		return p.MAR
	}
	h0 := hashAt(0, 0)
	h1 := hashAt(1, 0)
	if h0 == h1 {
		t.Error("hash units in different stages should be independent")
	}
	if hashAt(0, 0) != h0 {
		t.Error("hash not deterministic")
	}
	// A nonzero selector picks a stage-independent fixed function.
	if hashAt(0, 1) != hashAt(5, 1) {
		t.Error("fixed hash unit varies by stage")
	}
	if hashAt(0, 1) != FixedHash(1, words) {
		t.Error("fixed hash mismatch")
	}
	if StageHash(3, words) != hashAt(3, 0) {
		t.Error("StageHash mismatch")
	}
}

func TestTranslateEntries(t *testing.T) {
	d := testDevice(t)
	s := d.Stage(3)
	s.SetTranslate(7, Translate{Mask: 0xFF, Offset: 100})
	tr, ok := s.TranslateFor(7)
	if !ok || tr.Mask != 0xFF || tr.Offset != 100 {
		t.Fatalf("TranslateFor = %+v, %v", tr, ok)
	}
	if n := s.ClearTranslate(7); n != 1 {
		t.Errorf("ClearTranslate = %d, want 1", n)
	}
	if n := s.ClearTranslate(7); n != 0 {
		t.Errorf("double ClearTranslate = %d, want 0", n)
	}
	if _, ok := s.TranslateFor(7); ok {
		t.Error("entry survived clear")
	}
}

func TestPhysicalStage(t *testing.T) {
	d := testDevice(t)
	if d.PhysicalStage(25) != 5 || d.PhysicalStage(5) != 5 || d.PhysicalStage(40) != 0 {
		t.Error("PhysicalStage mapping wrong")
	}
}

func TestTraceHook(t *testing.T) {
	d := testDevice(t)
	var evs []TraceEvent
	d.SetTrace(func(ev TraceEvent) { evs = append(evs, ev) })
	prog := []isa.Instruction{
		{Op: isa.OpMbrLoad, Operand: 0}, // MBR <- 1
		{Op: isa.OpCJump, Operand: 1},   // taken
		{Op: isa.OpMbrNot},              // skipped
		{Op: isa.OpMbrNot, Label: 1},    // resumes
		{Op: isa.OpReturn},
	}
	run(d, &PHV{Data: [4]uint32{1}}, prog)
	if len(evs) != 5 {
		t.Fatalf("events = %d, want 5", len(evs))
	}
	if !evs[2].Skipped {
		t.Error("skipped instruction not flagged")
	}
	if evs[3].Skipped {
		t.Error("label-resumed instruction flagged as skipped")
	}
	if !evs[4].Complete {
		t.Error("final event not complete")
	}
	if evs[0].MBR != 1 {
		t.Errorf("trace MBR = %d", evs[0].MBR)
	}
	if evs[3].Stage != 3 || evs[3].Logical != 3 || evs[3].In != prog[3] {
		t.Errorf("event 3 stage/logical/instr = %d/%d/%v", evs[3].Stage, evs[3].Logical, evs[3].In)
	}
	// Physical stage wraps for recirculated slots.
	evs = nil
	run(d, &PHV{}, nops(23))
	if len(evs) != 23 || evs[22].Stage != 2 || evs[22].Logical != 22 {
		t.Errorf("recirculated event: %d events, last stage/logical = %d/%d", len(evs), evs[len(evs)-1].Stage, evs[len(evs)-1].Logical)
	}
	d.SetTrace(nil) // disable: no panic on next exec
	run(d, &PHV{}, nops(3))
}

func TestForkMirrorDst(t *testing.T) {
	d := testDevice(t)
	mirror := func(session uint8) (uint32, bool) { return 42, session == 1 }
	prog := []isa.Instruction{{Op: isa.OpFork, Operand: 1}, {Op: isa.OpReturn}}
	outs := runMirrored(d, &PHV{}, prog, mirror)
	if len(outs.PHVs) != 2 {
		t.Fatalf("outputs = %d", len(outs.PHVs))
	}
	if outs.PHVs[0].DstSet {
		t.Error("original steered to mirror port")
	}
	if !outs.PHVs[1].DstSet || outs.PHVs[1].Dst != 42 {
		t.Errorf("clone dst = %v/%d, want 42", outs.PHVs[1].DstSet, outs.PHVs[1].Dst)
	}
	// An uninstalled session leaves the clone unsteered.
	outs = runMirrored(d, &PHV{}, []isa.Instruction{{Op: isa.OpFork, Operand: 2}, {Op: isa.OpReturn}}, mirror)
	if len(outs.PHVs) != 2 || outs.PHVs[1].DstSet {
		t.Error("clone steered by an uninstalled mirror session")
	}
}
