package runtime

import (
	"strconv"
	"sync"
	"sync/atomic"

	"activermt/internal/telemetry"
)

// Counters is the runtime's counter ledger: telemetry counters built with
// the runtime, so they count whether or not a registry is attached
// (AttachTelemetry only registers them). Each is incremented where its event
// happens; readers call Value on the handles.
type Counters struct {
	ProgramsRun, Passthrough, Faults *telemetry.Counter
	RecircThrottled, PrivSuppressed  *telemetry.Counter
	QuarantineDrops, RevokedDrops    *telemetry.Counter
	PlanCompiles, TableOps           *telemetry.Counter
}

func newCounters() *Counters {
	return &Counters{
		ProgramsRun:     telemetry.NewCounter("activermt_runtime_programs_run_total", "capsules executed through the pipeline"),
		Passthrough:     telemetry.NewCounter("activermt_runtime_passthrough_total", "capsules of unadmitted FIDs forwarded unexecuted"),
		Faults:          telemetry.NewCounter("activermt_runtime_faults_total", "capsules that raised a protection fault"),
		RecircThrottled: telemetry.NewCounter("activermt_runtime_recirc_throttled_total", "capsules dropped by the recirculation fairness controller"),
		PrivSuppressed:  telemetry.NewCounter("activermt_runtime_priv_suppressed_total", "privileged instructions suppressed by the privilege table"),
		QuarantineDrops: telemetry.NewCounter("activermt_runtime_quarantine_drops_total", "capsules dropped while their FID was deactivated"),
		RevokedDrops:    telemetry.NewCounter("activermt_runtime_revoked_drops_total", "capsules dropped because their grant was revoked"),
		PlanCompiles:    telemetry.NewCounter("activermt_runtime_plan_compiles_total", "program-to-plan compilations performed"),
		TableOps:        telemetry.NewCounter("activermt_runtime_table_ops_total", "cumulative control-plane table update operations"),
	}
}

// Counters returns the runtime's counter ledger.
func (r *Runtime) Counters() *Counters { return r.ctr }

// addTableOps counts control-plane table update operations.
func (r *Runtime) addTableOps(n uint64) { r.ctr.TableOps.Add(n) }

// Telemetry is the runtime's attach-only metric set: the per-FID latency
// family and the gauges describing committed control state (admission
// counts, per-FID epochs, per-stage occupancy). The gauges are updated
// exclusively inside publish() under the registry's commit seqlock, which is
// what makes a scrape epoch-consistent across a grant commit.
type Telemetry struct {
	reg *telemetry.Registry

	// PacketLatFID is the per-FID packet-latency family: every output of
	// an executed capsule is observed in its FID's child, which the
	// capsule's compiled plan carries (see fidLatency). The device's
	// activermt_packet_latency_ns histogram is its total.
	PacketLatFID *telemetry.LevelHistogramVec
	latMu        sync.Mutex
	latFIDs      map[uint16]*telemetry.LevelHistogram

	Admitted, Quarantined, Revoked *telemetry.Gauge
	SnapshotGen                    *telemetry.Gauge
	Epochs                         *telemetry.GaugeVec

	// execSeq hands out flight-recorder executor ids: each ExecSink takes
	// the next of 1, 2, ... when it is bound.
	execSeq atomic.Int32
}

// Registry returns the registry the runtime metrics live in.
func (t *Telemetry) Registry() *telemetry.Registry { return t.reg }

// AttachTelemetry registers the runtime's and its device's counters in reg,
// creates the attach-only metrics there, and returns them. It also installs
// the grant-liveness resolver for flight-recorder entries and republishes
// the control snapshot so every gauge starts populated. Execution sinks bind
// their own flight recorders on their next capsule. Attach once, before
// traffic starts.
func (r *Runtime) AttachTelemetry(reg *telemetry.Registry) *Telemetry {
	c := r.ctr
	reg.MustRegister(c.ProgramsRun, c.Passthrough, c.Faults, c.RecircThrottled,
		c.PrivSuppressed, c.QuarantineDrops, c.RevokedDrops, c.PlanCompiles, c.TableOps)
	// The modeled latency of an output is a function of the stage slots it
	// traversed, so the latency families count per slot count.
	levels := make([]uint64, r.dev.MaxStagesRun()+1)
	for slots := range levels {
		levels[slots] = uint64(r.dev.SlotLatency(slots))
	}
	t := &Telemetry{
		reg:          reg,
		PacketLatFID: reg.NewLevelHistogramVec("activermt_packet_latency_fid_ns", "modeled packet latency per FID (bounded cardinality)", "fid", levels),
		latFIDs:      make(map[uint16]*telemetry.LevelHistogram),
		Admitted:     reg.NewGauge("activermt_runtime_admitted", "currently admitted FIDs"),
		Quarantined:  reg.NewGauge("activermt_runtime_quarantined", "FIDs currently deactivated for reallocation"),
		Revoked:      reg.NewGauge("activermt_runtime_revoked", "FIDs whose grant was revoked and not re-admitted"),
		SnapshotGen:  reg.NewGauge("activermt_runtime_snapshot_gen", "generation of the published control snapshot"),
		Epochs:       reg.NewGaugeVec("activermt_grant_epoch", "current grant epoch per FID", "fid"),
	}
	r.dev.AttachTelemetry(reg, t.PacketLatFID.Total("activermt_packet_latency_ns", "modeled per-packet pipeline latency"))

	// A flight entry is live iff its (FID, epoch) is still the currently
	// installed grant in the published control view — an atomic load, so
	// the scrape goroutine may resolve it at snapshot time.
	reg.SetLiveness(func(fid uint16, epoch uint8) bool {
		cv := r.view()
		return cv.admitted[fid] && cv.epochs[fid] == epoch
	})

	r.tel = t
	r.publish() // populate the gauges under a first commit
	return t
}

// maxLatFIDs bounds the per-FID latency family: the first maxLatFIDs FIDs
// get their own child, the rest share the "other" child.
const maxLatFIDs = 64

// fidLatency returns fid's child of the per-FID latency family, creating it
// on first use within the cardinality bound.
func (t *Telemetry) fidLatency(fid uint16) *telemetry.LevelHistogram {
	t.latMu.Lock()
	defer t.latMu.Unlock()
	if h, ok := t.latFIDs[fid]; ok {
		return h
	}
	label := "other"
	if len(t.latFIDs) < maxLatFIDs {
		label = strconv.FormatUint(uint64(fid), 10)
	}
	h := t.PacketLatFID.With(label)
	t.latFIDs[fid] = h
	return h
}

// Telemetry returns the attached metric set (nil when disabled).
func (r *Runtime) Telemetry() *Telemetry { return r.tel }

// syncGauges updates every committed-control-state gauge from the view just
// published. Called only from publish(), inside the commit window.
func (r *Runtime) syncGauges(v *ctrlView) {
	t := r.tel
	t.Admitted.Set(int64(len(v.admitted)))
	t.Quarantined.Set(int64(len(v.quarantined)))
	t.Revoked.Set(int64(len(v.revoked)))
	t.SnapshotGen.Set(int64(v.gen))
	for f, e := range v.epochs {
		t.Epochs.With(strconv.FormatUint(uint64(f), 10)).Set(int64(e))
	}
	r.dev.SyncOccupancy()
}
