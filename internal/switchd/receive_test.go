package switchd

import (
	gort "runtime"
	"strconv"
	"testing"

	"activermt/internal/apps"
	"activermt/internal/guard"
	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/runtime"
	"activermt/internal/telemetry"
)

// getQuery is the paper's Listing 1 cache query: a hit returns the value to
// the sender, a miss forwards the capsule toward the server.
var getQuery = isa.MustAssemble("get", `
.arg ADDR 2
MAR_LOAD $ADDR
MEM_READ
MBR_EQUALS_DATA_1
CRET
MEM_READ
MBR_EQUALS_DATA_2
CRET
RTS
MEM_READ
MBR_STORE
RETURN
`)

const (
	getFID             = 7
	getKey0, getKey1   = 0xAAAA0001, 0xBBBB0002
	getValue, getAddr  = 0xCAFED00D, 100
	portA              = 1 // newRig's switch port for host a
	setDstFID, mirFID  = 8, 9
	quarantineFID      = 10
	revokedFID         = 11
	guardedFID         = 12
	relayFID           = getFID
	relayMissKey0      = 0x1234
	receiveAllocBudget = 4
)

// capsuleFrame encodes a program capsule as host a sends it toward host b.
func (r *rig) capsuleFrame(t *testing.T, fid uint16, prog *isa.Program, args [4]uint32, flags uint16) []byte {
	t.Helper()
	a := &packet.Active{Header: packet.ActiveHeader{FID: fid, Flags: flags}, Args: args, Program: prog}
	a.Header.SetType(packet.TypeProgram)
	raw, err := packet.EncodeFrame(&packet.Frame{
		Eth:    packet.EthHeader{Dst: r.b.mac, Src: r.a.mac, EtherType: packet.EtherTypeActive},
		Active: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// receive hands one frame to the switch on host a's port and runs the
// simulation until every resulting frame is delivered. It returns the
// frames hosts a and b received.
func (r *rig) receive(t *testing.T, raw []byte) (toA, toB []*packet.Frame) {
	t.Helper()
	na, nb := len(r.a.frames), len(r.b.frames)
	in, ok := r.sw.Port(portA)
	if !ok {
		t.Fatal("no port for host a")
	}
	r.sw.Receive(raw, in)
	r.eng.Run()
	return r.a.frames[na:], r.b.frames[nb:]
}

// TestReceiveOutputClasses sends every output class of the packet path
// through Switch.Receive and checks what leaves the switch: an RTS hit, a
// SET_DST forward, a mirror FORK clone, revoked and quarantined capsules
// (dropped; the refused output is marked FlagFailed), a guard drop, and the
// relay re-arm of a forwarded capsule.
func TestReceiveOutputClasses(t *testing.T) {
	r := newRig(t)
	rt := r.sw.Runtime()
	dev := rt.Device()
	if _, err := rt.InstallGrant(runtime.Grant{FID: getFID, Accesses: []runtime.AccessGrant{
		{Logical: 1, Lo: 0, Hi: 1024}, {Logical: 4, Lo: 0, Hi: 1024}, {Logical: 8, Lo: 0, Hi: 1024},
	}}); err != nil {
		t.Fatal(err)
	}
	dev.Stage(1).Registers.Set(getAddr, getKey0)
	dev.Stage(4).Registers.Set(getAddr+1, getKey1)
	dev.Stage(8).Registers.Set(getAddr+2, getValue)
	for _, fid := range []uint16{setDstFID, mirFID, quarantineFID, revokedFID, guardedFID} {
		rt.AdmitStateless(fid)
	}

	// RTS hit: the value returns to the sender; nothing reaches b.
	toA, toB := r.receive(t, r.capsuleFrame(t, getFID, getQuery, [4]uint32{getKey0, getKey1, getAddr, 0}, 0))
	if len(toA) != 1 || len(toB) != 0 {
		t.Fatalf("RTS hit: a got %d, b got %d frames", len(toA), len(toB))
	}
	if got := toA[0].Active; got.Header.Flags&packet.FlagRTS == 0 || got.Args[0] != getValue || toA[0].Eth.Dst != r.a.mac {
		t.Fatalf("RTS hit reply: flags %#x args %v dst %v", got.Header.Flags, got.Args, toA[0].Eth.Dst)
	}
	if r.sw.FramesReturned != 1 {
		t.Errorf("FramesReturned = %d, want 1", r.sw.FramesReturned)
	}

	// SET_DST: the capsule leaves through the port named by MBR, whatever
	// its Ethernet destination.
	setDst := isa.MustAssemble("setdst", "MBR_LOAD 0\nSET_DST\nRETURN")
	toA, toB = r.receive(t, r.capsuleFrame(t, setDstFID, setDst, [4]uint32{portA}, 0))
	if len(toA) != 1 || len(toB) != 0 {
		t.Fatalf("SET_DST: a got %d, b got %d frames", len(toA), len(toB))
	}
	if p := toA[0].Active.Program; p == nil || p.Len() != 0 {
		t.Errorf("SET_DST output not shrunk: %v", p)
	}

	// Mirror FORK: the original reaches b, the clone the session's port.
	rt.SetMirrorSession(mirFID, apps.MirrorSessionID, portA)
	mirror := apps.MirrorService().Templates["main"]
	toA, toB = r.receive(t, r.capsuleFrame(t, mirFID, mirror, [4]uint32{}, 0))
	if len(toA) != 1 || len(toB) != 1 {
		t.Fatalf("mirror: a (collector) got %d, b got %d frames", len(toA), len(toB))
	}

	// Revoked and quarantined tenants hard-drop inside the runtime: nothing
	// leaves the switch, the refused output is marked FlagFailed, and the
	// received bytes are not mutated. A memsync capsule still executes
	// through a quarantine.
	rt.RemoveGrant(revokedFID)
	rt.Deactivate(quarantineFID)
	probe := isa.MustAssemble("probe", "NOP\nRETURN")
	for _, c := range []struct {
		name  string
		fid   uint16
		count *telemetry.Counter
	}{{"revoked", revokedFID, rt.Counters().RevokedDrops}, {"quarantined", quarantineFID, rt.Counters().QuarantineDrops}} {
		raw := r.capsuleFrame(t, c.fid, probe, [4]uint32{}, 0)
		orig := append([]byte(nil), raw...)
		dropped := r.sw.FramesDropped
		toA, toB = r.receive(t, raw)
		if len(toA)+len(toB) != 0 || r.sw.FramesDropped != dropped+1 || c.count.Value() != 1 {
			t.Fatalf("%s: %d frames left the switch, dropped %d->%d, runtime count %d",
				c.name, len(toA)+len(toB), dropped, r.sw.FramesDropped, c.count.Value())
		}
		if out := r.sw.res.Outputs; len(out) != 1 || !out[0].Dropped || out[0].Active.Header.Flags&packet.FlagFailed == 0 {
			t.Fatalf("%s: refused output not marked FlagFailed", c.name)
		}
		if string(raw) != string(orig) {
			t.Fatalf("%s: received frame mutated", c.name)
		}
	}
	if _, toB = r.receive(t, r.capsuleFrame(t, quarantineFID, probe, [4]uint32{}, packet.FlagMemSync)); len(toB) != 1 {
		t.Fatal("memsync capsule did not execute through the quarantine")
	}

	// Relay re-arm: a forwarded capsule carries its full original program
	// (nothing shrunk, nothing marked executed) so the next on-path device
	// re-executes it from the top. A GET miss forwards toward the server.
	r.sw.SetRelay(true)
	toA, toB = r.receive(t, r.capsuleFrame(t, relayFID, getQuery, [4]uint32{relayMissKey0, getKey1, getAddr, 0}, 0))
	if len(toA) != 0 || len(toB) != 1 {
		t.Fatalf("relay: a got %d, b got %d frames", len(toA), len(toB))
	}
	fwd := toB[0].Active
	if fwd.Program.Len() != getQuery.Len() || fwd.Header.Flags&packet.FlagFromSwch == 0 || r.sw.RelayedPrograms != 1 {
		t.Fatalf("relay: program %d/%d headers, flags %#x, relayed %d",
			fwd.Program.Len(), getQuery.Len(), fwd.Header.Flags, r.sw.RelayedPrograms)
	}
	for i, in := range fwd.Program.Instrs {
		if in.Executed {
			t.Fatalf("relay: header %d still marked executed", i)
		}
	}
	r.sw.SetRelay(false)

	// Guard drop: with epoch authentication on, a capsule echoing a stale
	// epoch never reaches the runtime.
	g := guard.New(rt, guard.Policy{RequireEpoch: true}, r.eng.Now)
	r.sw.SetGuard(g)
	run := rt.Counters().ProgramsRun.Value()
	raw := r.capsuleFrame(t, guardedFID, probe, [4]uint32{}, 0)
	f, err := packet.DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	f.Active.Header.Opaque = uint32(rt.Epoch(guardedFID) + 1) // stale echo
	if raw, err = packet.EncodeFrame(f); err != nil {
		t.Fatal(err)
	}
	toA, toB = r.receive(t, raw)
	if len(toA)+len(toB) != 0 || r.sw.GuardDropped != 1 || rt.Counters().ProgramsRun.Value() != run {
		t.Fatalf("guard drop: %d frames out, GuardDropped %d, executed %d", len(toA)+len(toB), r.sw.GuardDropped, rt.Counters().ProgramsRun.Value()-run)
	}
}

// TestReceiveGetHitAllocs gates the heap allocations of one Switch.Receive
// for a cache GET hit: frame decode through the program cache, plan
// execution, and the reply's encode and scheduling. Execution itself is
// allocation-free; the budget covers the output frame, its wire buffer,
// and the delivery event.
func TestReceiveGetHitAllocs(t *testing.T) {
	r := newRig(t)
	rt := r.sw.Runtime()
	if _, err := rt.InstallGrant(runtime.Grant{FID: getFID, Accesses: []runtime.AccessGrant{
		{Logical: 1, Lo: 0, Hi: 1024}, {Logical: 4, Lo: 0, Hi: 1024}, {Logical: 8, Lo: 0, Hi: 1024},
	}}); err != nil {
		t.Fatal(err)
	}
	dev := rt.Device()
	dev.Stage(1).Registers.Set(getAddr, getKey0)
	dev.Stage(4).Registers.Set(getAddr+1, getKey1)
	dev.Stage(8).Registers.Set(getAddr+2, getValue)
	raw := r.capsuleFrame(t, getFID, getQuery, [4]uint32{getKey0, getKey1, getAddr, 0}, 0)
	in, _ := r.sw.Port(portA)

	const runs = 200
	var m0, m1 gort.MemStats
	var allocs uint64
	for i := 0; i < runs+16; i++ {
		gort.ReadMemStats(&m0)
		r.sw.Receive(raw, in)
		gort.ReadMemStats(&m1)
		r.eng.Run()  // deliver the reply outside the measurement
		if i >= 16 { // first receives warm the program cache and plan
			allocs += m1.Mallocs - m0.Mallocs
		}
	}
	if r.sw.FramesReturned != runs+16 {
		t.Fatalf("FramesReturned = %d, want %d GET hits", r.sw.FramesReturned, runs+16)
	}
	if avg := float64(allocs) / runs; avg > receiveAllocBudget {
		t.Fatalf("Switch.Receive allocates %.2f/GET hit, budget %d", avg, receiveAllocBudget)
	} else {
		t.Logf("Switch.Receive: %.2f allocs per GET hit", avg)
	}
}

// TestReceivePerFIDLatency: a GET hit through Switch.Receive, with
// telemetry attached, lands one observation in the executing FID's child of
// the per-FID latency family — the switch's own execution path feeds it.
func TestReceivePerFIDLatency(t *testing.T) {
	r := newRig(t)
	rt := r.sw.Runtime()
	reg := telemetry.NewRegistry()
	rt.AttachTelemetry(reg)
	if _, err := rt.InstallGrant(runtime.Grant{FID: getFID, Accesses: []runtime.AccessGrant{
		{Logical: 1, Lo: 0, Hi: 1024}, {Logical: 4, Lo: 0, Hi: 1024}, {Logical: 8, Lo: 0, Hi: 1024},
	}}); err != nil {
		t.Fatal(err)
	}
	dev := rt.Device()
	dev.Stage(1).Registers.Set(getAddr, getKey0)
	dev.Stage(4).Registers.Set(getAddr+1, getKey1)
	dev.Stage(8).Registers.Set(getAddr+2, getValue)
	if toA, _ := r.receive(t, r.capsuleFrame(t, getFID, getQuery, [4]uint32{getKey0, getKey1, getAddr, 0}, 0)); len(toA) != 1 {
		t.Fatalf("GET hit: %d replies, want 1", len(toA))
	}

	want := `fid="` + strconv.Itoa(getFID) + `"`
	for _, m := range reg.Snapshot().Metrics {
		if m.Name != "activermt_packet_latency_fid_ns" {
			continue
		}
		for _, s := range m.Samples {
			if s.Labels == want && s.Hist != nil && s.Hist.Count == 1 {
				return
			}
		}
		t.Fatalf("per-FID latency samples %+v, want a %s child with count 1", m.Samples, want)
	}
	t.Fatal("activermt_packet_latency_fid_ns not registered")
}
