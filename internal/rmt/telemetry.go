package rmt

import (
	"strconv"

	"activermt/internal/telemetry"
)

// Counters is the device's counter ledger: telemetry counters built with the
// device, so they count whether or not a registry is attached
// (AttachTelemetry only registers them). ExecStats.FlushInto is their only
// writer; readers call Value on the handles.
type Counters struct {
	PacketsIn, PacketsDropped, Recirculations *telemetry.Counter

	// Per-physical-stage children, indexed by stage.
	StageExecuted []*telemetry.Counter
	RegReads      []*telemetry.Counter
	RegWrites     []*telemetry.Counter
	RegFaults     []*telemetry.Counter

	exec, reads, writes, faults *telemetry.CounterVec
}

func newCounters(numStages int) *Counters {
	c := &Counters{
		PacketsIn:      telemetry.NewCounter("activermt_device_packets_total", "packets entering the pipeline"),
		PacketsDropped: telemetry.NewCounter("activermt_device_packets_dropped_total", "packets dropped by execution (DROP, recirculation limit, faults)"),
		Recirculations: telemetry.NewCounter("activermt_device_recirculations_total", "pipeline recirculations"),
		exec:           telemetry.NewCounterVec("activermt_stage_executed_total", "instructions executed per physical stage", "stage"),
		reads:          telemetry.NewCounterVec("activermt_stage_register_reads_total", "register reads per physical stage", "stage"),
		writes:         telemetry.NewCounterVec("activermt_stage_register_writes_total", "register writes per physical stage", "stage"),
		faults:         telemetry.NewCounterVec("activermt_stage_register_faults_total", "protection faults per physical stage", "stage"),
	}
	for s := 0; s < numStages; s++ {
		l := strconv.Itoa(s)
		c.StageExecuted = append(c.StageExecuted, c.exec.With(l))
		c.RegReads = append(c.RegReads, c.reads.With(l))
		c.RegWrites = append(c.RegWrites, c.writes.With(l))
		c.RegFaults = append(c.RegFaults, c.faults.With(l))
	}
	return c
}

// Counters returns the device's counter ledger.
func (d *Device) Counters() *Counters { return d.ctr }

// Telemetry is the device's attach-only metric set: the occupancy gauges
// exist only once a registry is attached, so a device without one pays
// nothing for them.
type Telemetry struct {
	StageOccupancy []*telemetry.Gauge
}

// AttachTelemetry registers the device's counters in reg, together with
// latency, the per-packet pipeline latency histogram its executor records
// (the device exposes it; the runtime observes the outputs), and creates
// its occupancy gauges there. Attach before traffic starts.
func (d *Device) AttachTelemetry(reg *telemetry.Registry, latency telemetry.Metric) {
	c := d.ctr
	reg.MustRegister(c.PacketsIn, c.PacketsDropped, c.Recirculations, latency,
		c.exec, c.reads, c.writes, c.faults)
	t := &Telemetry{}
	occ := reg.NewGaugeVec("activermt_stage_occupancy_words", "register words covered by installed grants per physical stage", "stage")
	for s := range d.stages {
		t.StageOccupancy = append(t.StageOccupancy, occ.With(strconv.Itoa(s)))
	}
	d.tel = t
}

// Telemetry returns the attached metric set (nil when disabled).
func (d *Device) Telemetry() *Telemetry { return d.tel }

// SyncOccupancy recomputes the per-stage occupancy gauges from the published
// pipeline view. The runtime calls it inside its commit window so a scrape
// never sees occupancy from one grant commit and admission state from
// another.
func (d *Device) SyncOccupancy() {
	t := d.tel
	if t == nil {
		return
	}
	v := d.view.Load()
	for s := range d.stages {
		var words int64
		for _, r := range v.StageView(s).Regions() {
			words += int64(r.Hi - r.Lo)
		}
		t.StageOccupancy[s].Set(words)
	}
}
