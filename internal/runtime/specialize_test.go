package runtime

import (
	"testing"

	"activermt/internal/packet"
	"activermt/internal/telemetry"
)

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
	if got := r.Counters().ProgramsRun.Value(); got != 1 {
		t.Fatalf("first capsule: ProgramsRun = %d, want 1", got)
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
	faults := r.Counters().Faults
	res2 := NewExecResult() // fresh memo: prove the table check alone suffices
	r.executeOne(a, res2, sink, r.view(), r.dev.View(), tab1)
	if !res2.Outputs[0].Dropped || faults.Value() != 1 {
		t.Fatal("stale plan table executed its stale plan")
	}
	if len(tab1.plans) != 1 || len(r.planTab.Load().plans) != 0 {
		t.Fatal("one-shot plan was cached")
	}
	r.deliverEvents(sink)

	// The next packet through the normal entry recompiles under the new
	// snapshots into the fresh table, and the recompiled plan carries the
	// new bounds.
	r.ExecuteCapsule(a, res, sink)
	if got := r.Counters().ProgramsRun.Value(); got != 3 {
		t.Fatalf("ProgramsRun = %d after recompilation, want 3", got)
	}
	if r.PlanCompiles() != 3 || len(r.planTab.Load().plans) != 1 {
		t.Fatalf("PlanCompiles = %d, want 3 (initial, one-shot, recompile)", r.PlanCompiles())
	}
	if !res.Outputs[0].Dropped || faults.Value() != 2 {
		t.Fatal("recompiled plan kept the stale grant bounds")
	}
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

// TestPerFIDLatencyHistogram proves ExecuteCapsule feeds the per-FID
// latency family: after queries over two tenants, the registry snapshot
// carries a child per FID with its packet count, and the passthrough
// capsule (unexecuted) is not recorded.
func TestPerFIDLatencyHistogram(t *testing.T) {
	r := testRuntime(t)
	reg := telemetry.NewRegistry()
	r.AttachTelemetry(reg)
	installCacheGrant(t, r, 1, 0, 1024)
	installCacheGrant(t, r, 2, 1024, 2048)
	res := NewExecResult()
	sink := r.NewExecSink()
	for i := 0; i < 8; i++ {
		fid := uint16(1 + i%2)
		a := progPacket(fid, cacheQuery, [4]uint32{uint32(i), uint32(i) ^ 0x5a5a, uint32(100 + (i%2)*1024 + i), 0})
		a.Header.Flags |= packet.FlagPreload
		r.ExecuteCapsule(a, res, sink)
	}
	r.ExecuteCapsule(progPacket(9, cacheQuery, [4]uint32{}), res, sink) // unadmitted

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

// TestLatVecBoundedCardinality floods the per-FID latency family with far
// more FIDs than its bound and requires the overflow to fold into the
// "other" child while total observation count is conserved.
func TestLatVecBoundedCardinality(t *testing.T) {
	reg := telemetry.NewRegistry()
	tel := testRuntime(t).AttachTelemetry(reg)
	const fids = 500
	for f := 0; f < fids; f++ {
		tel.fidLatency(uint16(f)).Observe(1)
	}

	children, total, other := 0, uint64(0), uint64(0)
	for _, m := range reg.Snapshot().Metrics {
		if m.Name != "activermt_packet_latency_fid_ns" {
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
	if children > maxLatFIDs+1 {
		t.Fatalf("%d histogram children, want <= %d", children, maxLatFIDs+1)
	}
	if total != fids {
		t.Fatalf("observations conserved: %d, want %d", total, fids)
	}
	if other == 0 {
		t.Fatal("overflow FIDs did not fold into the other child")
	}
}
