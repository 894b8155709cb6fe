package runtime

import (
	"testing"

	"activermt/internal/packet"
	"activermt/internal/telemetry"
)

// batchWorkload builds a two-tenant batch of cache queries whose addresses
// land inside each tenant's grant.
func batchWorkload(t *testing.T, r *Runtime, n int) []*packet.Active {
	t.Helper()
	installCacheGrant(t, r, 1, 0, 1024)
	installCacheGrant(t, r, 2, 1024, 2048)
	batch := make([]*packet.Active, n)
	for i := range batch {
		fid := uint16(1 + i%2)
		addr := uint32(100 + (i%2)*1024 + i)
		a := progPacket(fid, cacheQuery, [4]uint32{uint32(i), uint32(i) ^ 0x5a5a, addr, 0})
		a.Header.Flags |= packet.FlagPreload
		batch[i] = a
	}
	return batch
}

// TestExecuteBatchZeroAlloc is the allocation gate for the batched hot path:
// once plans are compiled and the per-FID latency slots are warm, a whole
// ExecuteBatch call must not allocate — with telemetry both disabled and
// enabled (the batch path is the only one recording per-FID latencies).
func TestExecuteBatchZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name      string
		telemetry bool
	}{
		{name: "bare", telemetry: false},
		{name: "telemetry", telemetry: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := testRuntime(t)
			if tc.telemetry {
				r.AttachTelemetry(telemetry.NewRegistry())
			}
			batch := batchWorkload(t, r, DefaultExecBatch)
			res := NewExecResult()
			sink := r.NewExecSink()
			for i := 0; i < 8; i++ { // warm scratch, plans, latency slots
				r.ExecuteBatch(batch, res, sink, nil)
				r.DeliverEvents(sink)
			}
			if avg := testing.AllocsPerRun(100, func() {
				r.ExecuteBatch(batch, res, sink, nil)
			}); avg != 0 {
				t.Fatalf("batch path allocates %.2f/batch, want 0", avg)
			}
			if sink.Path.Specialized == 0 {
				t.Fatal("batch never ran a compiled plan")
			}
		})
	}
}

// TestPlanInvalidationOnGrantCommit proves a grant commit (epoch bump +
// region move) evicts the compiled plan itself — not just the decoded
// program — and that a superseded plan table can never execute a stale plan:
// validity is pointer identity against the freshly loaded snapshots, so a
// packet holding the stale table executes a one-shot plan compiled against
// the snapshots it loaded, and the next packet recompiles into the fresh
// table.
func TestPlanInvalidationOnGrantCommit(t *testing.T) {
	r := testRuntime(t)
	installCacheGrant(t, r, 1, 0, 1024)
	res := NewExecResult()
	sink := r.NewExecSink()
	a := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
	a.Header.Flags |= packet.FlagPreload

	r.ExecuteCapsule(a, res, sink)
	if sink.Path.Specialized != 1 {
		t.Fatalf("first capsule: Specialized = %d, want 1", sink.Path.Specialized)
	}
	if res.Outputs[0].Dropped {
		t.Fatal("in-grant query dropped")
	}
	if got := r.PlanCompiles(); got != 1 {
		t.Fatalf("PlanCompiles = %d, want 1", got)
	}
	tab1 := r.planTab.Load()
	if len(tab1.plans) != 1 {
		t.Fatalf("plan table holds %d plans, want 1", len(tab1.plans))
	}

	// Grant commit: the region moves to [1024,2048) and the epoch bumps.
	// publish() must install a fresh empty table keyed to the new snapshots.
	installCacheGrant(t, r, 1, 1024, 2048)
	tab2 := r.planTab.Load()
	if tab2 == tab1 {
		t.Fatal("grant commit did not replace the plan table")
	}
	if len(tab2.plans) != 0 {
		t.Fatalf("fresh plan table holds %d plans, want 0", len(tab2.plans))
	}
	if tab2.cv != r.view() || tab2.pv != r.dev.View() {
		t.Fatal("fresh plan table not keyed to the published snapshots")
	}

	// Executing against the superseded table must not use its stale plan:
	// the pointer-identity check fails and a one-shot plan runs against the
	// new snapshots, so address 100 — outside the moved grant — faults.
	// Neither table caches the one-shot plan.
	sink.Path = PathStats{}
	res2 := NewExecResult() // fresh memo: prove the table check alone suffices
	r.executeOne(a, res2, sink, r.view(), r.dev.View(), tab1)
	if !res2.Outputs[0].Dropped || sink.Path.Faults != 1 {
		t.Fatal("stale plan table executed its stale plan")
	}
	if len(tab1.plans) != 1 || len(r.planTab.Load().plans) != 0 {
		t.Fatal("one-shot plan was cached")
	}
	r.DeliverEvents(sink)

	// The next packet through the normal entry recompiles under the new
	// snapshots into the fresh table, and the recompiled plan carries the
	// new bounds.
	sink.Path = PathStats{}
	r.ExecuteCapsule(a, res, sink)
	if sink.Path.Specialized != 1 {
		t.Fatal("no plan execution after recompilation")
	}
	if r.PlanCompiles() != 3 || len(r.planTab.Load().plans) != 1 {
		t.Fatalf("PlanCompiles = %d, want 3 (initial, one-shot, recompile)", r.PlanCompiles())
	}
	if !res.Outputs[0].Dropped || sink.Path.Faults != 1 {
		t.Fatal("recompiled plan kept the stale grant bounds")
	}
	r.DeliverEvents(sink)
}

// TestPlanInvalidationOnQuarantineAndPrivilege pins the other two commit
// kinds the plan folds state from: a quarantine flip and a privilege change
// must both unreach the current plan table.
func TestPlanInvalidationOnQuarantineAndPrivilege(t *testing.T) {
	r := testRuntime(t)
	installCacheGrant(t, r, 1, 0, 1024)
	res := NewExecResult()
	sink := r.NewExecSink()
	a := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
	a.Header.Flags |= packet.FlagPreload
	r.ExecuteCapsule(a, res, sink)

	tab := r.planTab.Load()
	r.Deactivate(1)
	if r.planTab.Load() == tab {
		t.Fatal("quarantine commit did not replace the plan table")
	}
	r.Reactivate(1)

	tab = r.planTab.Load()
	r.SetPrivilege(1, 0)
	if r.planTab.Load() == tab {
		t.Fatal("privilege commit did not replace the plan table")
	}
}

// TestPerFIDLatencyHistogram proves the batch path feeds the per-FID
// latency family: after one batch over two tenants, the registry snapshot
// carries a child per FID with the batch's packet counts, and the
// passthrough capsule (unexecuted) is not recorded.
func TestPerFIDLatencyHistogram(t *testing.T) {
	r := testRuntime(t)
	reg := telemetry.NewRegistry()
	r.AttachTelemetry(reg)
	batch := batchWorkload(t, r, 8)
	batch = append(batch, progPacket(9, cacheQuery, [4]uint32{})) // unadmitted
	res := NewExecResult()
	sink := r.NewExecSink()
	r.ExecuteBatch(batch, res, sink, nil)

	counts := map[string]uint64{}
	for _, m := range reg.Snapshot().Metrics {
		if m.Name != "activermt_packet_latency_fid_ns" {
			continue
		}
		for _, s := range m.Samples {
			if s.Hist != nil {
				counts[s.Labels] += s.Hist.Count
			}
		}
	}
	if counts[`fid="1"`] != 4 || counts[`fid="2"`] != 4 {
		t.Fatalf("per-FID latency counts = %v, want 4 per tenant", counts)
	}
	if counts[`fid="9"`] != 0 {
		t.Fatal("passthrough capsule recorded a latency")
	}
}

// TestLatVecBoundedCardinality floods a recorder with far more FIDs than it
// has slots and requires the overflow to fold into the "other" child while
// total observation count is conserved.
func TestLatVecBoundedCardinality(t *testing.T) {
	reg := telemetry.NewRegistry()
	lv := newLatVec(reg.NewHistogramVec("test_lat_fid", "t", "fid"))
	const fids = 500
	for f := 0; f < fids; f++ {
		lv.observe(uint16(f), uint64(10+f))
	}
	lv.flush()

	children, total, other := 0, uint64(0), uint64(0)
	for _, m := range reg.Snapshot().Metrics {
		if m.Name != "test_lat_fid" {
			continue
		}
		for _, s := range m.Samples {
			if s.Hist == nil {
				continue
			}
			children++
			total += s.Hist.Count
			if s.Labels == `fid="other"` {
				other = s.Hist.Count
			}
		}
	}
	if children > latVecSlots+1 {
		t.Fatalf("%d histogram children, want <= %d", children, latVecSlots+1)
	}
	if total != fids {
		t.Fatalf("observations conserved: %d, want %d", total, fids)
	}
	if other == 0 {
		t.Fatal("overflow FIDs did not fold into the other child")
	}
}
