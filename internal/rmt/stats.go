package rmt

import "activermt/internal/telemetry"

// ExecStats is the per-capsule counter scratch of the packet hot path. Plan
// execution counts into plain fields here instead of the device's atomic
// counters (a stage counter may be bumped many times per capsule), and the
// executor flushes the scratch into the device's Counters once per capsule
// with FlushInto — the only writer of those counters.
type ExecStats struct {
	PacketsIn, PacketsDropped, Recirculations uint64

	// Per-physical-stage counters, indexed by stage.
	StageExecuted []uint64
	RegReads      []uint64
	RegWrites     []uint64
	RegFaults     []uint64
}

// NewExecStats returns a sink sized for a pipeline of numStages stages.
func NewExecStats(numStages int) *ExecStats {
	s := &ExecStats{}
	s.ensure(numStages)
	return s
}

func (s *ExecStats) ensure(n int) {
	if len(s.StageExecuted) < n {
		s.StageExecuted = make([]uint64, n)
		s.RegReads = make([]uint64, n)
		s.RegWrites = make([]uint64, n)
		s.RegFaults = make([]uint64, n)
	}
}

// FlushInto adds the scratch counts into the device's counters and zeroes
// the scratch. Zero deltas are skipped, so a per-capsule flush costs one
// atomic add per touched counter.
func (s *ExecStats) FlushInto(d *Device) {
	c := d.ctr
	drain(c.PacketsIn, &s.PacketsIn)
	drain(c.PacketsDropped, &s.PacketsDropped)
	drain(c.Recirculations, &s.Recirculations)
	for i := range s.StageExecuted {
		drain(c.StageExecuted[i], &s.StageExecuted[i])
		drain(c.RegReads[i], &s.RegReads[i])
		drain(c.RegWrites[i], &s.RegWrites[i])
		drain(c.RegFaults[i], &s.RegFaults[i])
	}
}

// drain moves a scratch count into its counter.
func drain(dst *telemetry.Counter, v *uint64) {
	if *v != 0 {
		dst.Add(*v)
		*v = 0
	}
}
