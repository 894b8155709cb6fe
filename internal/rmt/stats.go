package rmt

import "activermt/internal/telemetry"

// ExecStats is a counter sink for the packet hot path. Plan execution
// counts into an ExecStats instead of touching the shared counter fields
// directly, which is what lets N execution lanes run concurrently without
// racing on accounting state: each executor owns a private sink and merges
// it into the device's legacy counters under a happens-before edge (after
// every capsule on the switch, at lane shutdown for lanes), so code that
// reads Device.PacketsIn, Stage.Executed, or RegisterArray.Reads between
// packets sees up-to-date values.
type ExecStats struct {
	PacketsIn, PacketsDropped, Recirculations uint64

	// Per-physical-stage counters, indexed by stage.
	StageExecuted []uint64
	RegReads      []uint64
	RegWrites     []uint64
	RegFaults     []uint64

	// Lat accumulates per-packet pipeline latency (nanoseconds) lane-
	// locally; FlushInto merges it into the device's telemetry histogram.
	// Plain single-writer fields, exactly like the counters above.
	Lat telemetry.HistLocal
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

// Reset zeroes the sink in place, keeping its slices.
func (s *ExecStats) Reset() {
	s.PacketsIn, s.PacketsDropped, s.Recirculations = 0, 0, 0
	for i := range s.StageExecuted {
		s.StageExecuted[i] = 0
		s.RegReads[i] = 0
		s.RegWrites[i] = 0
		s.RegFaults[i] = 0
	}
	s.Lat.Reset()
}

// Merge adds o into s.
func (s *ExecStats) Merge(o *ExecStats) {
	s.ensure(len(o.StageExecuted))
	s.PacketsIn += o.PacketsIn
	s.PacketsDropped += o.PacketsDropped
	s.Recirculations += o.Recirculations
	for i := range o.StageExecuted {
		s.StageExecuted[i] += o.StageExecuted[i]
		s.RegReads[i] += o.RegReads[i]
		s.RegWrites[i] += o.RegWrites[i]
		s.RegFaults[i] += o.RegFaults[i]
	}
	s.Lat.Merge(&o.Lat)
}

// FlushInto drains the sink into the device's legacy counter fields (device
// totals, per-stage Executed, register-array access counters), mirroring
// into the device's telemetry metrics when attached, and resets it. Callers
// must hold exclusive access to the device's counters: the owner of a
// single-threaded executor, or a lane merge after a quiescent drain or
// worker join.
func (s *ExecStats) FlushInto(d *Device) {
	s.flushTel(d)
	s.FlushLegacyInto(d)
}

// FlushTelemetryInto mirrors the sink into the device's telemetry metrics
// only and moves the drained counts into carry for a later legacy merge.
// The telemetry metrics are sharded atomics, so lane workers may call this
// mid-stream; the legacy device fields are untouched.
func (s *ExecStats) FlushTelemetryInto(d *Device, carry *ExecStats) {
	s.flushTel(d)
	carry.Merge(s)
	s.Reset()
}

// flushTel mirrors the counters into the device's telemetry metrics (when
// attached) and drains the latency accumulator; the plain counters are left
// intact for the legacy merge. Zero deltas are skipped so a per-packet
// flush costs a handful of atomic adds.
func (s *ExecStats) flushTel(d *Device) {
	t := d.tel
	if t == nil {
		return
	}
	if s.PacketsIn != 0 {
		t.PacketsIn.Add(s.PacketsIn)
	}
	if s.PacketsDropped != 0 {
		t.PacketsDropped.Add(s.PacketsDropped)
	}
	if s.Recirculations != 0 {
		t.Recirculations.Add(s.Recirculations)
	}
	for i := range s.StageExecuted {
		if i >= len(t.StageExecuted) {
			break
		}
		if v := s.StageExecuted[i]; v != 0 {
			t.StageExecuted[i].Add(v)
		}
		if v := s.RegReads[i]; v != 0 {
			t.RegReads[i].Add(v)
		}
		if v := s.RegWrites[i]; v != 0 {
			t.RegWrites[i].Add(v)
		}
		if v := s.RegFaults[i]; v != 0 {
			t.RegFaults[i].Add(v)
		}
	}
	s.Lat.FlushInto(t.Latency)
}

// FlushLegacyInto drains the sink into the device's legacy counter fields
// with no telemetry mirror — the merge half for sinks whose telemetry was
// already flushed mid-stream (lane carry sinks) — and resets it. Exclusive
// access to the device's counters required.
func (s *ExecStats) FlushLegacyInto(d *Device) {
	d.PacketsIn += s.PacketsIn
	d.PacketsDropped += s.PacketsDropped
	d.Recirculations += s.Recirculations
	for i := range s.StageExecuted {
		if i >= len(d.stages) {
			break
		}
		st := d.stages[i]
		st.Executed += s.StageExecuted[i]
		st.Registers.Reads += s.RegReads[i]
		st.Registers.Writes += s.RegWrites[i]
		st.Registers.Faults += s.RegFaults[i]
	}
	s.Reset()
}
