package runtime

import (
	"strconv"
	"sync/atomic"

	"activermt/internal/rmt"
	"activermt/internal/telemetry"
)

// Telemetry is the runtime's pre-registered metric handle set. Counters are
// fed from PathStats.FlushInto at the existing merge points (per capsule on
// the switch, mid-stream and at Stop for lanes);
// gauges describing committed control state (admission counts, per-FID
// epochs, per-stage occupancy) are updated exclusively inside publish()
// under the registry's commit seqlock, which is what makes a scrape
// epoch-consistent across a grant commit.
type Telemetry struct {
	reg *telemetry.Registry

	ProgramsRun, Passthrough, Faults *telemetry.Counter
	RecircThrottled, PrivSuppressed  *telemetry.Counter
	QuarantineDrops, RevokedDrops    *telemetry.Counter
	Specialized, PlanCompiles        *telemetry.Counter
	TableOps                         *telemetry.Counter

	// PacketLatFID is the per-FID packet-latency family, fed from the batch
	// path's bounded per-sink recorders (see latVec in specialize.go).
	PacketLatFID *telemetry.HistogramVec

	Admitted, Quarantined, Revoked *telemetry.Gauge
	SnapshotGen                    *telemetry.Gauge
	Epochs                         *telemetry.GaugeVec

	// laneSeq hands out flight-recorder lane ids: each ExecSink (the
	// switch's, one per lane worker) takes the next of 1, 2, ...
	laneSeq atomic.Int32
}

// Registry returns the registry the runtime metrics live in.
func (t *Telemetry) Registry() *telemetry.Registry { return t.reg }

// AttachTelemetry registers the runtime's and its device's metric set in
// reg and returns the handle set. It also installs the grant-liveness
// resolver for flight-recorder entries and republishes the control snapshot
// so every gauge starts populated. Execution sinks created afterwards (or
// refreshed with BindSink) carry their own flight recorders. Attach once,
// before traffic starts.
func (r *Runtime) AttachTelemetry(reg *telemetry.Registry) *Telemetry {
	t := &Telemetry{
		reg:             reg,
		ProgramsRun:     reg.NewCounter("activermt_runtime_programs_run_total", "capsules executed through the pipeline"),
		Passthrough:     reg.NewCounter("activermt_runtime_passthrough_total", "capsules of unadmitted FIDs forwarded unexecuted"),
		Faults:          reg.NewCounter("activermt_runtime_faults_total", "capsules that raised a protection fault"),
		RecircThrottled: reg.NewCounter("activermt_runtime_recirc_throttled_total", "capsules dropped by the recirculation fairness controller"),
		PrivSuppressed:  reg.NewCounter("activermt_runtime_priv_suppressed_total", "privileged instructions suppressed by the privilege table"),
		QuarantineDrops: reg.NewCounter("activermt_runtime_quarantine_drops_total", "capsules dropped while their FID was deactivated"),
		RevokedDrops:    reg.NewCounter("activermt_runtime_revoked_drops_total", "capsules dropped because their grant was revoked"),
		Specialized:     reg.NewCounter("activermt_runtime_specialized_total", "capsules executed through a compiled plan"),
		PlanCompiles:    reg.NewCounter("activermt_runtime_plan_compiles_total", "program-to-plan compilations performed"),
		TableOps:        reg.NewCounter("activermt_runtime_table_ops_total", "cumulative control-plane table update operations"),
		PacketLatFID:    reg.NewHistogramVec("activermt_packet_latency_fid_ns", "modeled packet latency per FID (batch path; bounded cardinality)", "fid"),
		Admitted:        reg.NewGauge("activermt_runtime_admitted", "currently admitted FIDs"),
		Quarantined:     reg.NewGauge("activermt_runtime_quarantined", "FIDs currently deactivated for reallocation"),
		Revoked:         reg.NewGauge("activermt_runtime_revoked", "FIDs whose grant was revoked and not re-admitted"),
		SnapshotGen:     reg.NewGauge("activermt_runtime_snapshot_gen", "generation of the published control snapshot"),
		Epochs:          reg.NewGaugeVec("activermt_grant_epoch", "current grant epoch per FID", "fid"),
	}
	r.dev.AttachTelemetry(rmt.NewTelemetry(reg, r.dev.NumStages()))

	// Lane queue depth and lane count read the active Lanes instance (if
	// any) through an atomic pointer: atomic loads only, as GaugeFunc
	// requires.
	reg.NewGaugeFunc("activermt_lane_queue_depth", "capsules dispatched to lanes and not yet processed", func() float64 {
		if l := r.telLanes.Load(); l != nil {
			return float64(l.QueueDepth())
		}
		return 0
	})
	reg.NewGaugeFunc("activermt_lanes", "active execution lanes (0: single-threaded mode)", func() float64 {
		if l := r.telLanes.Load(); l != nil {
			return float64(l.n)
		}
		return 0
	})

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

// Telemetry returns the attached handle set (nil when disabled).
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

// addTableOps mirrors a TableOps increment into telemetry.
func (r *Runtime) addTableOps(n uint64) {
	if t := r.tel; t != nil {
		t.TableOps.Add(n)
	}
}
