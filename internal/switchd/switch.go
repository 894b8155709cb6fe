// Package switchd implements the ActiveRMT switch: the data-plane node that
// executes active programs at its ports (through the runtime's compiled
// plans)
// and the control-plane controller that serializes admissions, computes
// allocations, orchestrates reallocation (deactivate -> snapshot window ->
// table update -> reactivate, Section 4.3), and answers clients with
// allocation-response packets.
package switchd

import (
	"fmt"
	"time"

	"activermt/internal/guard"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/runtime"
)

// Switch is the netsim endpoint for the ActiveRMT switch data plane.
type Switch struct {
	eng   *netsim.Engine
	rt    *runtime.Runtime
	ctrl  *Controller
	guard *guard.Guard
	cache *packet.ProgCache

	// res and sink are the switch's execution scratch state and accounting
	// context: outputs are consumed before the next capsule executes.
	res  *runtime.ExecResult
	sink *runtime.ExecSink

	mac   packet.MAC
	ports map[int]*netsim.Port
	hosts map[packet.MAC]int // L2 table: MAC -> port

	// relay marks the switch as a fabric transit node: control traffic not
	// addressed to this switch is forwarded toward its destination instead of
	// being consumed, and program capsules forwarded onward carry the full
	// original program so the next on-path device re-executes from the top
	// (PHV state does not cross devices). Off by default — a standalone
	// switch behaves exactly as before.
	relay bool

	// probeSink receives link-health probe replies (FlagProbe|FlagFromSwch
	// control frames addressed to this switch) — the fabric health monitor
	// registers one per leaf.
	probeSink func(f *packet.Frame, port *netsim.Port)

	// Counters.
	FramesIn, FramesForwarded, FramesReturned, FramesDropped uint64
	UnknownMAC, GuardDropped                                 uint64
	ControlTransit, RelayedPrograms                          uint64
	ProbesEchoed, ProbeReplies                               uint64
}

// NewSwitch builds a switch around a runtime. Attach the controller with
// SetController and wire ports with AddPort.
func NewSwitch(eng *netsim.Engine, rt *runtime.Runtime, mac packet.MAC) *Switch {
	return &Switch{
		eng:   eng,
		rt:    rt,
		mac:   mac,
		cache: packet.NewProgCache(0),
		res:   runtime.NewExecResult(),
		sink:  rt.NewExecSink(),
		ports: make(map[int]*netsim.Port),
		hosts: make(map[packet.MAC]int),
	}
}

// SetController attaches the control plane.
func (s *Switch) SetController(c *Controller) { s.ctrl = c }

// SetGuard installs the ingress capsule guard (nil disables it).
func (s *Switch) SetGuard(g *guard.Guard) { s.guard = g }

// Guard returns the installed guard, if any.
func (s *Switch) Guard() *guard.Guard { return s.guard }

// ProgCache returns the switch's decoded-program cache. The controller
// invalidates a tenant's entries when its grant changes; epoch keying already
// orphans stale versions, so invalidation is memory hygiene.
func (s *Switch) ProgCache() *packet.ProgCache { return s.cache }

// Runtime exposes the data-plane runtime.
func (s *Switch) Runtime() *runtime.Runtime { return s.rt }

// MAC returns the switch's own address.
func (s *Switch) MAC() packet.MAC { return s.mac }

// AddPort registers a port (created via netsim.Connect with this switch as
// the endpoint) and the host MAC reachable through it.
func (s *Switch) AddPort(p *netsim.Port, host packet.MAC) {
	s.ports[p.Num] = p
	s.hosts[host] = p.Num
}

// AddRoute maps an additional destination MAC to an already-registered port
// — the fabric's static routing table entries (remote hosts reached via an
// uplink).
func (s *Switch) AddRoute(dst packet.MAC, pnum int) {
	s.hosts[dst] = pnum
}

// SetRelay switches fabric transit behavior on or off (see the relay field).
func (s *Switch) SetRelay(on bool) { s.relay = on }

// SetProbeSink registers the receiver for link-health probe replies.
func (s *Switch) SetProbeSink(fn func(f *packet.Frame, port *netsim.Port)) { s.probeSink = fn }

// Port returns a registered port by number (the fabric uses this to target
// link-level fault injectors at specific uplinks).
func (s *Switch) Port(num int) (*netsim.Port, bool) {
	p, ok := s.ports[num]
	return p, ok
}

// SendProbe emits a link-health probe out the given port toward dst: a
// TypeControl frame flagged FlagProbe whose Opaque word carries the caller's
// correlation token. The probed switch echoes it back in the data plane.
func (s *Switch) SendProbe(pnum int, dst packet.MAC, token uint32) error {
	p, ok := s.ports[pnum]
	if !ok {
		return fmt.Errorf("switchd: no port %d for probe", pnum)
	}
	a := &packet.Active{}
	a.Header.SetType(packet.TypeControl)
	a.Header.Flags |= packet.FlagProbe
	a.Header.Opaque = token
	f := &packet.Frame{
		Eth:    packet.EthHeader{Dst: dst, Src: s.mac, EtherType: packet.EtherTypeActive},
		Active: a,
	}
	raw, err := packet.EncodeFrame(f)
	if err != nil {
		return err
	}
	p.Send(raw)
	return nil
}

// Receive implements netsim.Endpoint: the switch pipeline entry point.
func (s *Switch) Receive(frame []byte, port *netsim.Port) {
	s.FramesIn++
	// Program capsules decode through the cache: one ISA decode + structural
	// validation per program version, parse-once for the guard downstream.
	f, err := packet.DecodeFrameCached(frame, s.cache)
	if err != nil {
		s.FramesDropped++
		return
	}
	if f.Active == nil {
		// Plain traffic: baseline L2 forwarding. A frame hairpinned back
		// out its ingress port turns around after the ingress pipeline
		// (half a pass) — the no-processing echo baseline of Figure 8b.
		lat := s.rt.Device().Config().PassLatency
		if pnum, ok := s.hosts[f.Eth.Dst]; ok && pnum == port.Num {
			lat /= 2
		}
		s.forward(f, lat)
		return
	}
	switch f.Active.Header.Type() {
	case packet.TypeAllocReq, packet.TypeControl:
		// Control traffic reaches the controller as a digest. In a fabric,
		// only the switch a control frame addresses consumes it; a transit
		// node passes it along like plain traffic.
		if s.relay && f.Eth.Dst != s.mac {
			s.ControlTransit++
			s.forward(f, s.rt.Device().Config().PassLatency)
			return
		}
		if f.Active.Header.Flags&packet.FlagProbe != 0 {
			// Link-health probes never reach the controller: a probe is
			// answered by the data plane (so a crashed control plane does
			// not read as a dead link), and a reply goes to the probe sink.
			if f.Active.Header.Flags&packet.FlagFromSwch != 0 {
				s.ProbeReplies++
				if s.probeSink != nil {
					s.probeSink(f, port)
				}
				return
			}
			s.ProbesEchoed++
			reply := *f.Active
			reply.Header.Flags |= packet.FlagFromSwch
			of := &packet.Frame{
				Eth:    packet.EthHeader{Dst: f.Eth.Src, Src: s.mac, EtherType: packet.EtherTypeActive},
				Active: &reply,
			}
			s.sendOut(port.Num, of, s.rt.Device().Config().PassLatency/2)
			return
		}
		if s.ctrl != nil {
			s.ctrl.Digest(f, port)
		}
	case packet.TypeProgram:
		s.execute(f, port)
	case packet.TypeAllocResp:
		// Allocation responses originate at switches; a standalone switch
		// drops one arriving on a port, but a fabric transit node carries
		// responses from an upstream switch toward the client host.
		if s.relay && f.Eth.Dst != s.mac {
			s.ControlTransit++
			s.forward(f, s.rt.Device().Config().PassLatency)
			return
		}
		s.FramesDropped++
	default:
		s.FramesDropped++
	}
}

func (s *Switch) execute(f *packet.Frame, in *netsim.Port) {
	if s.guard != nil && !s.guard.CheckProgram(f.Active, in.Num) {
		s.FramesDropped++
		s.GuardDropped++
		return
	}
	s.rt.ExecuteCapsule(f.Active, s.res, s.sink)
	for _, out := range s.res.Outputs {
		if out.Dropped {
			s.FramesDropped++
			continue
		}
		of := &packet.Frame{Eth: f.Eth, Active: out.Active, Inner: out.Active.Payload}
		lat := out.Latency
		if s.relay && !out.ToSender && out.Active.Program != nil {
			// Fabric relay: a capsule forwarded onward re-executes from the
			// top at the next on-path device — PHV state does not cross
			// switches, so the executed prefix must ride along un-stripped.
			// The original decoded program is immutable under execution, so
			// reattaching it restores the capsule to its ingress form (and
			// copies it out of the reusable output slot).
			if out.Active != f.Active {
				restored := *out.Active
				restored.Program = f.Active.Program
				restored.ValidState = f.Active.ValidState
				of.Active = &restored
				of.Inner = restored.Payload
				s.RelayedPrograms++
			}
		}
		switch {
		case out.ToSender:
			// RTS: swap addresses and return via the ingress port.
			of.Eth.Dst, of.Eth.Src = f.Eth.Src, s.mac
			s.FramesReturned++
			s.sendOut(in.Num, of, lat)
		case out.DstSet:
			s.sendOut(int(out.Dst), of, lat)
			s.FramesForwarded++
		default:
			s.forward(of, lat)
		}
	}
}

// forward sends a frame toward its destination MAC after the pipeline
// latency.
func (s *Switch) forward(f *packet.Frame, latency time.Duration) {
	pnum, ok := s.hosts[f.Eth.Dst]
	if !ok {
		s.UnknownMAC++
		s.FramesDropped++
		return
	}
	s.FramesForwarded++
	s.sendOut(pnum, f, latency)
}

func (s *Switch) sendOut(pnum int, f *packet.Frame, latency time.Duration) {
	p, ok := s.ports[pnum]
	if !ok {
		s.FramesDropped++
		return
	}
	raw, err := packet.EncodeFrame(f)
	if err != nil {
		s.FramesDropped++
		return
	}
	s.eng.Schedule(latency, func() { p.Send(raw) })
}

// SendToHost lets the controller emit a frame toward a host MAC (allocation
// responses and reactivation notices).
func (s *Switch) SendToHost(dst packet.MAC, a *packet.Active) error {
	pnum, ok := s.hosts[dst]
	if !ok {
		return fmt.Errorf("switchd: no port for host %s", dst)
	}
	f := &packet.Frame{
		Eth:    packet.EthHeader{Dst: dst, Src: s.mac, EtherType: packet.EtherTypeActive},
		Active: a,
		Inner:  a.Payload,
	}
	raw, err := packet.EncodeFrame(f)
	if err != nil {
		return err
	}
	s.ports[pnum].Send(raw)
	return nil
}
