package switchd

import (
	"testing"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/isa"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/rmt"
	"activermt/internal/runtime"
)

// host is a scriptable endpoint that records what it receives.
type host struct {
	mac    packet.MAC
	port   *netsim.Port
	frames []*packet.Frame
}

func (h *host) Receive(frame []byte, p *netsim.Port) {
	f, err := packet.DecodeFrame(frame)
	if err != nil {
		return
	}
	h.frames = append(h.frames, f)
}

func (h *host) send(t *testing.T, a *packet.Active, dst packet.MAC) {
	t.Helper()
	ethType := uint16(packet.EtherTypeActive)
	if a == nil {
		ethType = packet.EtherTypeIPv4
	}
	f := &packet.Frame{Eth: packet.EthHeader{Dst: dst, Src: h.mac, EtherType: ethType}, Active: a}
	if a != nil {
		f.Inner = a.Payload
	}
	raw, err := packet.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	h.port.Send(raw)
}

type rig struct {
	eng  *netsim.Engine
	sw   *Switch
	ctrl *Controller
	a, b *host
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := netsim.NewEngine()
	cfg := rmt.DefaultConfig()
	cfg.StageWords = 8192
	rt, err := runtime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg := alloc.DefaultConfig()
	acfg.StageWords = 8192
	al, err := alloc.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitch(eng, rt, packet.MAC{0xFF})
	ctrl := NewController(eng, sw, al, DefaultCosts())

	r := &rig{eng: eng, sw: sw, ctrl: ctrl}
	r.a = &host{mac: packet.MAC{0xA}}
	r.b = &host{mac: packet.MAC{0xB}}
	for i, h := range []*host{r.a, r.b} {
		swp, hp := netsim.Connect(eng, sw, i+1, h, 0, time.Microsecond, 0)
		sw.AddPort(swp, h.mac)
		h.port = hp
	}
	return r
}

func TestPlainForwarding(t *testing.T) {
	r := newRig(t)
	r.a.send(t, nil, r.b.mac)
	r.eng.Run()
	if len(r.b.frames) != 1 {
		t.Fatalf("b received %d frames", len(r.b.frames))
	}
	if r.sw.FramesForwarded != 1 {
		t.Errorf("forwarded = %d", r.sw.FramesForwarded)
	}
}

func TestUnknownMACDropped(t *testing.T) {
	r := newRig(t)
	r.a.send(t, nil, packet.MAC{0xEE})
	r.eng.Run()
	if r.sw.UnknownMAC != 1 || r.sw.FramesDropped != 1 {
		t.Errorf("unknown=%d dropped=%d", r.sw.UnknownMAC, r.sw.FramesDropped)
	}
}

func TestHairpinLatencyHalved(t *testing.T) {
	r := newRig(t)
	start := r.eng.Now()
	r.a.send(t, nil, r.a.mac) // back to sender: hairpin
	r.eng.Run()
	hairpin := r.eng.Now() - start
	if len(r.a.frames) != 1 {
		t.Fatal("hairpin frame lost")
	}
	r2 := newRig(t)
	start = r2.eng.Now()
	r2.a.send(t, nil, r2.b.mac)
	r2.eng.Run()
	cross := r2.eng.Now() - start
	if hairpin >= cross {
		t.Errorf("hairpin %v not faster than cross %v", hairpin, cross)
	}
}

// allocRequest builds a wire request matching a 1-access program.
func allocRequest(fid uint16, demand uint8) *packet.Active {
	a := &packet.Active{
		Header: packet.ActiveHeader{FID: fid},
		AllocReq: &packet.AllocRequest{
			ProgLen: 5, IngressIdx: 3,
			Accesses: []packet.AccessReq{{Index: 2, Demand: demand}},
		},
	}
	a.Header.SetType(packet.TypeAllocReq)
	return a
}

func TestAdmissionRoundTrip(t *testing.T) {
	r := newRig(t)
	r.a.send(t, allocRequest(5, 2), r.sw.MAC())
	r.eng.Run()
	if len(r.a.frames) != 1 {
		t.Fatalf("responses = %d", len(r.a.frames))
	}
	resp := r.a.frames[0].Active
	if resp == nil || resp.Header.Type() != packet.TypeAllocResp {
		t.Fatalf("reply: %+v", r.a.frames[0])
	}
	if resp.Header.Flags&packet.FlagFailed != 0 {
		t.Fatal("admission failed")
	}
	if !r.sw.Runtime().Admitted(5) {
		t.Error("fid not admitted on the switch")
	}
	if len(r.ctrl.Records) != 1 || r.ctrl.Records[0].Failed {
		t.Errorf("records: %+v", r.ctrl.Records)
	}
	// Provisioning advanced virtual time meaningfully (compute + tables).
	if rec := r.ctrl.Records[0]; rec.End-rec.Start < time.Millisecond {
		t.Errorf("provisioning took only %v", rec.End-rec.Start)
	}
}

func TestAdmissionSerialized(t *testing.T) {
	r := newRig(t)
	r.a.send(t, allocRequest(1, 2), r.sw.MAC())
	r.b.send(t, allocRequest(2, 2), r.sw.MAC())
	r.eng.Run()
	if len(r.ctrl.Records) != 2 {
		t.Fatalf("records = %d", len(r.ctrl.Records))
	}
	// The second admission must start no earlier than the first ends.
	if r.ctrl.Records[1].Start < r.ctrl.Records[0].End {
		t.Errorf("admissions overlapped: %v < %v", r.ctrl.Records[1].Start, r.ctrl.Records[0].End)
	}
}

func TestAdmissionFailureResponse(t *testing.T) {
	r := newRig(t)
	// 8192 words = 32 blocks per stage: demand 64 blocks cannot fit.
	r.a.send(t, allocRequest(9, 64), r.sw.MAC())
	r.eng.Run()
	if len(r.a.frames) != 1 {
		t.Fatalf("responses = %d", len(r.a.frames))
	}
	if r.a.frames[0].Active.Header.Flags&packet.FlagFailed == 0 {
		t.Error("failure flag missing")
	}
	if r.sw.Runtime().Admitted(9) {
		t.Error("failed fid admitted")
	}
}

func TestStatelessAdmissionPath(t *testing.T) {
	r := newRig(t)
	a := &packet.Active{
		Header:   packet.ActiveHeader{FID: 4},
		AllocReq: &packet.AllocRequest{ProgLen: 3, IngressIdx: -1},
	}
	a.Header.SetType(packet.TypeAllocReq)
	r.a.send(t, a, r.sw.MAC())
	r.eng.Run()
	if !r.sw.Runtime().Admitted(4) {
		t.Fatal("stateless fid not admitted")
	}
	if r.ctrl.Allocator().NumApps() != 0 {
		t.Error("stateless admission consumed allocator state")
	}
}

func TestReleaseViaControlPacket(t *testing.T) {
	r := newRig(t)
	r.a.send(t, allocRequest(5, 2), r.sw.MAC())
	r.eng.Run()
	rel := &packet.Active{Header: packet.ActiveHeader{FID: 5, Flags: packet.FlagRelease}}
	rel.Header.SetType(packet.TypeControl)
	r.a.send(t, rel, r.sw.MAC())
	r.eng.Run()
	if r.sw.Runtime().Admitted(5) {
		t.Error("fid still admitted after release")
	}
	if r.ctrl.Allocator().NumApps() != 0 {
		t.Error("allocator still holds the app")
	}
	// Release ack delivered.
	last := r.a.frames[len(r.a.frames)-1].Active
	if last.Header.Flags&packet.FlagRelease == 0 || last.Header.Flags&packet.FlagDone == 0 {
		t.Errorf("release ack flags: %#x", last.Header.Flags)
	}
}

func TestSnapshotTimeoutUnblocksAdmission(t *testing.T) {
	r := newRig(t)
	// Admit an elastic app that will later be reallocated but whose
	// client never answers the snapshot window.
	el := &packet.Active{
		Header: packet.ActiveHeader{FID: 1},
		AllocReq: &packet.AllocRequest{
			ProgLen: 5, IngressIdx: 3, Elastic: true,
			Accesses: []packet.AccessReq{{Index: 1}},
		},
	}
	el.Header.SetType(packet.TypeAllocReq)
	r.a.send(t, el, r.sw.MAC())
	r.eng.Run()

	// A second elastic app in the same stage forces a reallocation of the
	// first; host a never sends SnapDone.
	el2 := &packet.Active{
		Header: packet.ActiveHeader{FID: 2},
		AllocReq: &packet.AllocRequest{
			ProgLen: 5, IngressIdx: 3, Elastic: true,
			Accesses: []packet.AccessReq{{Index: 1}},
		},
	}
	el2.Header.SetType(packet.TypeAllocReq)
	r.b.send(t, el2, r.sw.MAC())
	r.eng.Run()

	if len(r.ctrl.Records) != 2 {
		t.Fatalf("records = %d", len(r.ctrl.Records))
	}
	rec := r.ctrl.Records[1]
	if rec.Failed {
		t.Fatal("second admission failed")
	}
	if rec.Reallocated == 0 {
		t.Skip("allocator found disjoint stages; nothing to time out")
	}
	// The snapshot wait hit the timeout rather than hanging forever.
	if rec.SnapshotWait < DefaultCosts().SnapshotTimeout {
		t.Errorf("snapshot wait %v below timeout", rec.SnapshotWait)
	}
	if !r.sw.Runtime().Admitted(2) {
		t.Error("newcomer not admitted after timeout")
	}
	if r.sw.Runtime().Quarantined(1) {
		t.Error("reallocated fid left quarantined")
	}
}

func TestProgramExecutionThroughSwitch(t *testing.T) {
	r := newRig(t)
	r.a.send(t, allocRequest(5, 2), r.sw.MAC())
	r.eng.Run()
	grant, ok := r.sw.Runtime().RegionFor(5, 2)
	if !ok {
		t.Fatal("no region installed")
	}

	// A program writing then returning to sender.
	prog := isa.MustAssemble("w", "MBR_LOAD 0\nMAR_LOAD 2\nMEM_WRITE\nRTS\nRETURN")
	a := &packet.Active{
		Header:  packet.ActiveHeader{FID: 5},
		Args:    [4]uint32{0xFEED, 0, grant.Lo, 0},
		Program: prog,
	}
	a.Header.SetType(packet.TypeProgram)
	r.a.send(t, a, r.b.mac)
	r.eng.Run()
	// RTS: frame returned to host a, not forwarded to b.
	if len(r.a.frames) < 2 {
		t.Fatalf("no RTS reply (frames=%d)", len(r.a.frames))
	}
	reply := r.a.frames[len(r.a.frames)-1]
	if reply.Active == nil || reply.Active.Header.Flags&packet.FlagRTS == 0 {
		t.Fatalf("reply: %+v", reply)
	}
	if got := r.sw.Runtime().Device().Stage(2).Registers.Get(grant.Lo); got != 0xFEED {
		t.Errorf("memory = %#x", got)
	}
	if r.sw.FramesReturned != 1 {
		t.Errorf("FramesReturned = %d", r.sw.FramesReturned)
	}
}

func TestFaultingProgramDropped(t *testing.T) {
	r := newRig(t)
	r.a.send(t, allocRequest(5, 2), r.sw.MAC())
	r.eng.Run()
	prog := isa.MustAssemble("w", "MBR_LOAD 0\nMAR_LOAD 2\nMEM_WRITE\nRTS\nRETURN")
	a := &packet.Active{
		Header:  packet.ActiveHeader{FID: 5},
		Args:    [4]uint32{1, 0, 7000, 0}, // out of region
		Program: prog,
	}
	a.Header.SetType(packet.TypeProgram)
	before := r.sw.FramesDropped
	r.a.send(t, a, r.b.mac)
	r.eng.Run()
	if r.sw.FramesDropped != before+1 {
		t.Errorf("dropped = %d, want %d", r.sw.FramesDropped, before+1)
	}
	if len(r.b.frames) != 0 {
		t.Error("faulted packet leaked to destination")
	}
}

func TestBogusAllocRespFromHostDropped(t *testing.T) {
	r := newRig(t)
	a := &packet.Active{Header: packet.ActiveHeader{FID: 1}, AllocResp: &packet.AllocResponse{}}
	a.Header.SetType(packet.TypeAllocResp)
	r.a.send(t, a, r.sw.MAC())
	r.eng.Run()
	if r.sw.FramesDropped != 1 {
		t.Errorf("dropped = %d", r.sw.FramesDropped)
	}
}

func TestSendToHostUnknownMAC(t *testing.T) {
	r := newRig(t)
	a := &packet.Active{Header: packet.ActiveHeader{FID: 1}}
	a.Header.SetType(packet.TypeControl)
	if err := r.sw.SendToHost(packet.MAC{0xEE}, a); err == nil {
		t.Error("unknown host accepted")
	}
}

func TestDefaultCostsShape(t *testing.T) {
	c := DefaultCosts()
	if c.TableOp <= 0 || c.DigestLatency <= 0 || c.SnapshotTimeout <= 0 {
		t.Errorf("costs: %+v", c)
	}
	// Table updates must be able to dominate compute for realistic op
	// counts (Figure 8a's finding).
	if c.TableOp*100 < c.ComputeBase {
		t.Error("table updates cannot dominate")
	}
}
