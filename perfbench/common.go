package main

import (
	"fmt"
	"syscall"
	"time"

	"activermt/internal/switchd"
)

// system is one set-up workload instance.
type system interface {
	// run executes the whole seeded schedule; tr is nil when untraced.
	run(tr *tracer) *outcome
	// counts reads the program's public counters.
	counts() layerCounts
	// allocLogs lists the controllers whose provisioning history the
	// allocator replay re-runs.
	allocLogs() []allocLog
}

// outcome is what one schedule produced. Everything but the notes is
// virtual-time or a count, so it repeats exactly for a seed.
type outcome struct {
	ops                     int // GETs+PUTs, or tenant arrivals+departures
	gets, getAnswered       int
	getHits                 int
	getRetries              int // GETs the client sent again after a timeout
	puts, putAcked          int
	getLat, putLat, provLat latencies
	admits, rejects         int
	lateness                time.Duration
	frag                    float64
	// background marks GETs that ride beside the schedule's ops (the churn
	// workload's cache traffic) and count as attempted on top of them.
	background bool

	unanswered int // ops or GETs that never completed
	wrong      int // wrong answers and failed audits
	notes      []string
}

func (o *outcome) note(s string) {
	if len(o.notes) < 10 {
		o.notes = append(o.notes, s)
	}
}

// violate records a wrong answer or a failed audit.
func (o *outcome) violate(format string, args ...any) {
	o.wrong++
	o.note(fmt.Sprintf(format, args...))
}

// unfinished records an op still pending when the engine drained.
func (o *outcome) unfinished(s string) {
	o.unanswered++
	o.note(s)
}

// attempted counts every operation issued: the schedule's ops plus, on the
// churn workload, the background GETs.
func (o *outcome) attempted() int {
	if o.background {
		return o.ops + o.gets
	}
	return o.ops
}

func (o *outcome) failed() int { return o.unanswered + o.wrong }

// fingerprint renders every virtual-time result exactly, for the
// determinism check between repetitions.
func (o *outcome) fingerprint() string {
	return fmt.Sprintf("ops=%d gets=%d/%d retries=%d hits=%d puts=%d/%d get=%d/%v put=%d/%v prov=%d/%v admits=%d rejects=%d late=%v failed=%d frag=%v",
		o.ops, o.gets, o.getAnswered, o.getRetries, o.getHits, o.puts, o.putAcked,
		len(o.getLat), o.getLat.sum(), len(o.putLat), o.putLat.sum(), len(o.provLat), o.provLat.sum(),
		o.admits, o.rejects, o.lateness, o.failed(), o.frag)
}

// layerCounts is the program's public counters summed over every layer
// instance.
type layerCounts struct {
	framesIn, returned, relayed, forwarded uint64
	checked                                uint64
	pcHits, pcMisses                       uint64
	clientRx, serverReqs, portRx           uint64
}

func (c *layerCounts) addSwitch(s *switchd.Switch) {
	c.framesIn += s.FramesIn
	c.returned += s.FramesReturned
	c.relayed += s.RelayedPrograms
	c.forwarded += s.FramesForwarded
	h, m, _ := s.ProgCache().Stats()
	c.pcHits += h
	c.pcMisses += m
}

func (c layerCounts) sub(b layerCounts) layerCounts {
	return layerCounts{
		framesIn: c.framesIn - b.framesIn, returned: c.returned - b.returned,
		relayed: c.relayed - b.relayed, forwarded: c.forwarded - b.forwarded,
		checked: c.checked - b.checked, pcHits: c.pcHits - b.pcHits, pcMisses: c.pcMisses - b.pcMisses,
		clientRx: c.clientRx - b.clientRx, serverReqs: c.serverReqs - b.serverReqs, portRx: c.portRx - b.portRx,
	}
}

// switchPortRx sums the frames delivered to a switch's ports.
func switchPortRx(s *switchd.Switch) uint64 {
	var n uint64
	for num := 1; ; num++ {
		p, ok := s.Port(num)
		if !ok {
			return n
		}
		n += p.RxFrames
	}
}

// cpuTime is the CPU time the process has used, user plus system, over
// all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
