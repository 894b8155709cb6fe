package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/switchd"
)

// Fixed-input replay. A separate run of the same seeded schedule (the
// replay twin) delivers every frame a host transmits into its switch
// through a tap instead of the plain link (same delay and bandwidth, so the
// simulation is unchanged). For a sample of those frames the tap records
// the path the real delivery took from the switch's public counters, then
// re-delivers the same bytes back to back and times the public calls:
// Switch.Receive, and the packet and guard calls it is built from. Every
// re-delivery must take the path the real delivery took, and none may be
// guard-dropped. Client and KV-server receives are sampled the same way.
// Re-deliveries put duplicate frames into the twin's network; the twin's
// own results are never reported, only the per-call costs.

// Switch frame classes, by program-ness and the path the frame took.
const (
	classReturned  = iota // program capsule answered back to the sender
	classRelayed          // program capsule re-armed toward the next device
	classProgOther        // program capsule forwarded otherwise, or consumed
	classPlain            // plain frame, L2-forwarded
	numClasses
)

var classNames = [numClasses]string{"returned", "relayed", "program-other", "plain"}

// callCost accumulates per-call host time and allocations.
type callCost struct {
	calls  int64
	ns     float64
	allocs float64
}

func (c *callCost) add(calls int, d time.Duration, allocs uint64) {
	c.calls += int64(calls)
	c.ns += float64(d.Nanoseconds())
	c.allocs += float64(allocs)
}

func (c *callCost) merge(o callCost) {
	c.calls += o.calls
	c.ns += o.ns
	c.allocs += o.allocs
}

func (c callCost) perCall() (ns, allocs float64) {
	if c.calls == 0 {
		return 0, 0
	}
	return c.ns / float64(c.calls), c.allocs / float64(c.calls)
}

// frameCost is the replay cost of one switch frame class.
type frameCost struct {
	frames                      int
	receive, decode, check, enc callCost
}

// replayReps is how many times a sampled call is re-delivered back to back.
const replayReps = 16

type replayer struct {
	// Sample one call in every swEvery frames a switch tap delivers,
	// clEvery frames a client hands its application, srvEvery KV server
	// receives.
	swEvery, clEvery, srvEvery int

	sw          [numClasses]frameCost
	cl, srv     callCost
	mismatches  int
	guardDrops  int
	checkDenied int
	errs        []string
	active      bool // re-delivering: taps pass frames straight through
}

func (r *replayer) fail(format string, args ...any) {
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// ok reports whether every replay assertion held.
func (r *replayer) ok() bool {
	return r.mismatches == 0 && r.guardDrops == 0 && r.checkDenied == 0
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.Mallocs
}

// swCounts is the part of a switch's public counters that names a frame's
// path.
type swCounts struct {
	in, returned, relayed, forwarded, dropped, guardDropped uint64
}

func readSw(s *switchd.Switch) swCounts {
	return swCounts{s.FramesIn, s.FramesReturned, s.RelayedPrograms, s.FramesForwarded, s.FramesDropped, s.GuardDropped}
}

func (a swCounts) sub(b swCounts) swCounts {
	return swCounts{a.in - b.in, a.returned - b.returned, a.relayed - b.relayed,
		a.forwarded - b.forwarded, a.dropped - b.dropped, a.guardDropped - b.guardDropped}
}

func (a swCounts) times(n uint64) swCounts {
	return swCounts{a.in * n, a.returned * n, a.relayed * n, a.forwarded * n, a.dropped * n, a.guardDropped * n}
}

// switchTap receives a host's transmissions and delivers them into the
// switch port the host is wired to.
type switchTap struct {
	r  *replayer
	sw *switchd.Switch
	in *netsim.Port // the switch's own port toward the host
	n  int
}

func (t *switchTap) Receive(frame []byte, _ *netsim.Port) {
	r := t.r
	t.n++
	if r.active || t.n%r.swEvery != 0 {
		t.sw.Receive(frame, t.in)
		return
	}
	raw := append([]byte(nil), frame...)
	f, err := packet.DecodeFrame(raw)
	prog := err == nil && f.Active != nil && f.Active.Header.Type() == packet.TypeProgram
	if err != nil || (f.Active != nil && !prog) {
		// Control traffic reaches the controller; re-delivering it would
		// change the tenants' admissions, so it is not sampled.
		t.sw.Receive(frame, t.in)
		return
	}
	before := readSw(t.sw)
	t.sw.Receive(frame, t.in)
	path := readSw(t.sw).sub(before)
	r.replaySwitch(t, raw, prog, path)
}

func classify(prog bool, path swCounts) int {
	switch {
	case !prog:
		return classPlain
	case path.returned > 0:
		return classReturned
	case path.relayed > 0:
		return classRelayed
	}
	return classProgOther
}

func (r *replayer) replaySwitch(t *switchTap, raw []byte, prog bool, path swCounts) {
	if path.guardDropped > 0 {
		r.guardDrops++
		r.fail("%s guard-dropped a frame the workload produced", t.sw.MAC())
		return
	}
	cls := classify(prog, path)
	fc := &r.sw[cls]
	fc.frames++
	n := replayReps
	r.active = true
	defer func() { r.active = false }()

	before := readSw(t.sw)
	m0 := mallocs()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.sw.Receive(raw, t.in)
	}
	d := time.Since(start)
	fc.receive.add(n, d, mallocs()-m0)
	if got := readSw(t.sw).sub(before); got != path.times(uint64(n)) {
		r.mismatches++
		r.fail("%s %s frame: replay path %+v, measured-run path %+v per frame", t.sw.MAC(), classNames[cls], got, path)
	}

	m0 = mallocs()
	start = time.Now()
	var f *packet.Frame
	var err error
	for i := 0; i < n; i++ {
		f, err = packet.DecodeFrameCached(raw, t.sw.ProgCache())
	}
	fc.decode.add(n, time.Since(start), mallocs()-m0)
	if err != nil {
		r.fail("%s: replayed frame no longer decodes: %v", t.sw.MAC(), err)
		r.mismatches++
		return
	}

	if prog && t.sw.Guard() != nil {
		g := t.sw.Guard()
		pass := true
		m0 = mallocs()
		start = time.Now()
		for i := 0; i < n; i++ {
			pass = g.CheckProgram(f.Active, t.in.Num) && pass
		}
		fc.check.add(n, time.Since(start), mallocs()-m0)
		if !pass {
			r.checkDenied++
			r.fail("%s: guard denied a replayed %s capsule", t.sw.MAC(), classNames[cls])
		}
	}

	if _, err := packet.EncodeFrame(f); err != nil {
		r.fail("%s: decoded frame does not encode: %v", t.sw.MAC(), err)
		r.mismatches++
		return
	}
	m0 = mallocs()
	start = time.Now()
	for i := 0; i < n; i++ {
		_, _ = packet.EncodeFrame(f) // checked above; the input is the same
	}
	fc.enc.add(n, time.Since(start), mallocs()-m0)
}

// wrapClient samples the frames a client delivers to its application and
// re-delivers them through Client.Receive. port is the client's own NIC.
func (r *replayer) wrapClient(cl *client.Client, port *netsim.Port) {
	orig := cl.Handler
	n := 0
	cl.Handler = func(c *client.Client, f *packet.Frame) {
		if orig != nil {
			orig(c, f)
		}
		n++
		if r.active || n%r.clEvery != 0 {
			return
		}
		raw, err := packet.EncodeFrame(f)
		if err != nil {
			return
		}
		r.active = true
		m0 := mallocs()
		start := time.Now()
		for i := 0; i < replayReps; i++ {
			cl.Receive(raw, port)
		}
		r.cl.add(replayReps, time.Since(start), mallocs()-m0)
		r.active = false
	}
}

// serverTap wraps the KV server's NIC side and samples its receives.
type serverTap struct {
	r   *replayer
	srv *apps.KVServer
	n   int
}

func (t *serverTap) Receive(frame []byte, port *netsim.Port) {
	r := t.r
	t.n++
	if r.active || t.n%r.srvEvery != 0 {
		t.srv.Receive(frame, port)
		return
	}
	raw := append([]byte(nil), frame...)
	t.srv.Receive(frame, port)
	r.active = true
	m0 := mallocs()
	start := time.Now()
	for i := 0; i < replayReps; i++ {
		t.srv.Receive(raw, port)
	}
	r.srv.add(replayReps, time.Since(start), mallocs()-m0)
	r.active = false
}
