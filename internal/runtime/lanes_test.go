package runtime

import (
	"testing"

	"activermt/internal/isa"
	"activermt/internal/packet"
)

// laneCounter bumps one register word per packet: instruction index 1 is
// MEM_INCREMENT, so the grant lives at logical stage 1 and the word count
// after a run is exact — the sharpest isolation witness available.
var laneCounter = isa.MustAssemble("lane-counter", `
MAR_LOAD 2
MEM_INCREMENT
RTS
RETURN
`)

// counterWord reads the tenant's counter word back through the
// control-plane snapshot path.
func counterWord(t *testing.T, r *Runtime, fid uint16, addr uint32) uint32 {
	t.Helper()
	for phys := range r.InstalledRegions(fid) {
		words, reg, err := r.Snapshot(fid, phys)
		if err != nil {
			t.Fatal(err)
		}
		if addr >= reg.Lo && addr < reg.Hi {
			return words[addr-reg.Lo]
		}
	}
	t.Fatalf("fid %d: no region covers addr %d", fid, addr)
	return 0
}

// TestLanesSingleLaneEquivalence: a single lane processes capsules in
// dispatch order, so after Stop the counters and register state must be
// identical to the same stream run through the sequential single-capsule path.
func TestLanesSingleLaneEquivalence(t *testing.T) {
	ra := testRuntime(t)
	rb := testRuntime(t)
	installCacheGrant(t, ra, 1, 0, 1024)
	installCacheGrant(t, rb, 1, 0, 1024)

	lanes, err := rb.NewLanes(1)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(i int) (*packet.Active, *packet.Active) {
		args := [4]uint32{uint32(i), uint32(i) ^ 0xbeef, uint32(100 + i%8), 0}
		fid := uint16(1)
		if i%7 == 6 {
			fid = 9 // unadmitted: passthrough on both paths
		}
		a := progPacket(fid, cacheQuery.Clone(), args)
		b := progPacket(fid, cacheQuery.Clone(), args)
		a.Header.Flags |= packet.FlagPreload
		b.Header.Flags |= packet.FlagPreload
		return a, b
	}
	const n = 400
	for i := 0; i < n; i++ {
		a, b := stream(i)
		execProgram(ra, a)
		lanes.Dispatch(b, uint32(i))
	}
	lanes.Stop()

	if ra.ProgramsRun != rb.ProgramsRun || ra.Passthrough != rb.Passthrough || ra.Faults != rb.Faults {
		t.Fatalf("counters diverged: sequential run/pass/fault %d/%d/%d, lanes %d/%d/%d",
			ra.ProgramsRun, ra.Passthrough, ra.Faults, rb.ProgramsRun, rb.Passthrough, rb.Faults)
	}
	da, db := ra.Device(), rb.Device()
	if da.PacketsIn != db.PacketsIn || da.PacketsDropped != db.PacketsDropped {
		t.Fatalf("device counters diverged: %d/%d vs %d/%d",
			da.PacketsIn, da.PacketsDropped, db.PacketsIn, db.PacketsDropped)
	}
	for phys := range ra.InstalledRegions(1) {
		wa, _, err := ra.Snapshot(1, phys)
		if err != nil {
			t.Fatal(err)
		}
		wb, _, err := rb.Snapshot(1, phys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("stage %d word %d: sequential %#x, lanes %#x", phys, i, wa[i], wb[i])
			}
		}
	}
}

// TestLanesParallelTenantIsolation runs four tenants across four lanes and
// checks the single-writer invariant held: every tenant's counter word is
// exact, with zero faults — no lost increments, no cross-tenant writes.
func TestLanesParallelTenantIsolation(t *testing.T) {
	r := testRuntime(t)
	const tenants, perTenant = 4, 1000
	for fid := uint16(1); fid <= tenants; fid++ {
		lo := uint32(fid-1) * 512
		g := Grant{FID: fid, Accesses: []AccessGrant{{Logical: 1, Lo: lo, Hi: lo + 512}}}
		if _, err := r.InstallGrant(g); err != nil {
			t.Fatal(err)
		}
	}
	lanes, err := r.NewLanes(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < perTenant; i++ {
		for fid := uint16(1); fid <= tenants; fid++ {
			addr := uint32(fid-1)*512 + 7
			lanes.Dispatch(progPacket(fid, laneCounter, [4]uint32{0, 0, addr, 0}), uint32(i))
		}
	}
	lanes.Stop()

	if r.Faults != 0 {
		t.Fatalf("faults = %d, want 0", r.Faults)
	}
	if r.ProgramsRun != tenants*perTenant {
		t.Fatalf("programs run = %d, want %d", r.ProgramsRun, tenants*perTenant)
	}
	for fid := uint16(1); fid <= tenants; fid++ {
		addr := uint32(fid-1)*512 + 7
		if got := counterWord(t, r, fid, addr); got != perTenant {
			t.Fatalf("tenant %d counter = %d, want %d", fid, got, perTenant)
		}
	}
}

// TestLanesMidStreamRetraction removes a tenant's grant while the lanes are
// running. Retraction-only control operations are legal mid-stream: every
// victim capsule either executed against the old published view or was
// revoked-dropped under the new one — and every capsule dispatched after
// the commit is guaranteed dropped. No increments are lost or duplicated.
func TestLanesMidStreamRetraction(t *testing.T) {
	r := testRuntime(t)
	for fid := uint16(1); fid <= 2; fid++ {
		lo := uint32(fid-1) * 512
		g := Grant{FID: fid, Accesses: []AccessGrant{{Logical: 1, Lo: lo, Hi: lo + 512}}}
		if _, err := r.InstallGrant(g); err != nil {
			t.Fatal(err)
		}
	}
	lanes, err := r.NewLanes(2)
	if err != nil {
		t.Fatal(err)
	}
	const half = 500
	send := func(fid uint16, i int) {
		addr := uint32(fid-1)*512 + 3
		lanes.Dispatch(progPacket(fid, laneCounter, [4]uint32{0, 0, addr, 0}), uint32(i))
	}
	for i := 0; i < half; i++ {
		send(1, i)
		send(2, i)
	}
	r.RemoveGrant(2) // mid-stream, from the dispatch thread: retraction-only
	for i := half; i < 2*half; i++ {
		send(1, i)
		send(2, i)
	}
	lanes.Stop()

	if r.Faults != 0 {
		t.Fatalf("faults = %d, want 0", r.Faults)
	}
	if got := counterWord(t, r, 1, 3); got != 2*half {
		t.Fatalf("survivor counter = %d, want %d", got, 2*half)
	}
	// The victim's region is gone, so read its word via the device directly:
	// its lane stopped writing it at the retraction boundary.
	var victimStage int
	for phys := range r.InstalledRegions(1) {
		victimStage = phys // counter grants share logical stage 1
	}
	executed := uint64(r.Device().Stage(victimStage).Registers.Get(512 + 3))
	if executed+r.RevokedDrops != 2*half {
		t.Fatalf("victim executed %d + revoked-dropped %d != %d dispatched",
			executed, r.RevokedDrops, 2*half)
	}
	// Everything dispatched after the commit must have been dropped.
	if r.RevokedDrops < half {
		t.Fatalf("revoked drops = %d, want >= %d (post-retraction capsules)", r.RevokedDrops, half)
	}
	if !r.Revoked(2) {
		t.Fatal("victim not marked revoked")
	}
}

// TestLanesQuiesceInstall exercises the word-writing control rule: drain
// the lanes with Quiesce, install a new grant (which zeroes its region),
// refresh the routes to pin the new tenant, then resume dispatching.
func TestLanesQuiesceInstall(t *testing.T) {
	r := testRuntime(t)
	g1 := Grant{FID: 1, Accesses: []AccessGrant{{Logical: 1, Lo: 0, Hi: 512}}}
	if _, err := r.InstallGrant(g1); err != nil {
		t.Fatal(err)
	}
	lanes, err := r.NewLanes(2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	for i := 0; i < n; i++ {
		lanes.Dispatch(progPacket(1, laneCounter, [4]uint32{0, 0, 5, 0}), uint32(i))
	}

	lanes.Quiesce() // drain: no worker touches register words past this point
	g2 := Grant{FID: 2, Accesses: []AccessGrant{{Logical: 1, Lo: 512, Hi: 1024}}}
	if _, err := r.InstallGrant(g2); err != nil {
		t.Fatal(err)
	}
	// Quiesce refreshed routes BEFORE the install committed, so the new
	// tenant is not yet pinned; refresh again before dispatching it.
	lanes.RefreshRoutes()

	for i := 0; i < n; i++ {
		lanes.Dispatch(progPacket(2, laneCounter, [4]uint32{0, 0, 512 + 5, 0}), uint32(i))
		lanes.Dispatch(progPacket(1, laneCounter, [4]uint32{0, 0, 5, 0}), uint32(i))
	}
	lanes.Stop()

	if r.Faults != 0 {
		t.Fatalf("faults = %d, want 0", r.Faults)
	}
	if got := counterWord(t, r, 1, 5); got != 2*n {
		t.Fatalf("tenant 1 counter = %d, want %d", got, 2*n)
	}
	if got := counterWord(t, r, 2, 512+5); got != n {
		t.Fatalf("tenant 2 counter = %d, want %d", got, n)
	}
}
