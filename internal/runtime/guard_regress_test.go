package runtime

import (
	"sync"
	"testing"
	"time"

	"activermt/internal/packet"
)

// Regression: a FID whose grant was removed must hard-drop, not fall through
// to stage-NOP passthrough. Before the guard work, RemoveGrant left the FID
// indistinguishable from a never-admitted one, so its packets were forwarded
// unexecuted — a revoked tenant kept using switch bandwidth.
func TestRevokedFIDHardDrops(t *testing.T) {
	r := testRuntime(t)
	const fid = 11
	installCacheGrant(t, r, fid, 0, 64)
	r.RemoveGrant(fid)

	outs := execProgram(r, progPacket(fid, cacheQuery.Clone(), [4]uint32{1, 2, 10, 0}))
	if len(outs) != 1 {
		t.Fatalf("outputs = %d", len(outs))
	}
	if !outs[0].Dropped {
		t.Fatal("revoked FID's packet must drop, not pass through")
	}
	if outs[0].Active.Header.Flags&packet.FlagFailed == 0 {
		t.Error("revoked drop must set FlagFailed")
	}
	if r.Counters().RevokedDrops.Value() != 1 {
		t.Errorf("RevokedDrops = %d, want 1", r.Counters().RevokedDrops.Value())
	}
	if r.Counters().Passthrough.Value() != 0 {
		t.Errorf("Passthrough = %d, want 0 (revoked is not a table miss)", r.Counters().Passthrough.Value())
	}

	// A fresh grant clears revocation: the FID executes again.
	installCacheGrant(t, r, fid, 0, 64)
	outs = execProgram(r, progPacket(fid, cacheQuery.Clone(), [4]uint32{1, 2, 10, 0}))
	if outs[0].Dropped {
		t.Error("re-admitted FID must execute")
	}
}

// Regression: quarantined (deactivated) FIDs must hard-drop normal traffic
// while still executing FlagMemSync extraction programs, and a reactivated
// FID resumes normally.
func TestQuarantineHardDropAndMemSync(t *testing.T) {
	r := testRuntime(t)
	const fid = 12
	installCacheGrant(t, r, fid, 0, 64)
	r.Deactivate(fid)

	outs := execProgram(r, progPacket(fid, cacheQuery.Clone(), [4]uint32{1, 2, 10, 0}))
	if !outs[0].Dropped {
		t.Fatal("quarantined FID's normal traffic must drop")
	}
	if outs[0].Active.Header.Flags&packet.FlagFailed == 0 {
		t.Error("quarantine drop must set FlagFailed")
	}
	if r.Counters().QuarantineDrops.Value() != 1 {
		t.Errorf("QuarantineDrops = %d, want 1", r.Counters().QuarantineDrops.Value())
	}

	// Extraction traffic still runs against the frozen snapshot.
	ms := progPacket(fid, cacheQuery.Clone(), [4]uint32{1, 2, 10, 0})
	ms.Header.Flags |= packet.FlagMemSync
	outs = execProgram(r, ms)
	if outs[0].Dropped {
		t.Error("FlagMemSync traffic must execute during quarantine")
	}

	r.Reactivate(fid)
	outs = execProgram(r, progPacket(fid, cacheQuery.Clone(), [4]uint32{1, 2, 10, 0}))
	if outs[0].Dropped {
		t.Error("reactivated FID must execute")
	}
	if r.Counters().QuarantineDrops.Value() != 1 {
		t.Errorf("QuarantineDrops = %d after reactivation, want still 1", r.Counters().QuarantineDrops.Value())
	}
}

// The recirculation limiter must be safe under concurrent multi-FID load:
// per-pipe meters are consulted without control-plane serialization. Run
// with -race; the assertions check token-bucket conservation per FID.
func TestRecircAllowedConcurrent(t *testing.T) {
	r := testRuntime(t)
	const budget = 8
	r.EnableRecircLimiter(RecircPolicy{Budget: budget, Window: time.Hour}, func() time.Duration { return 0 })

	n := r.Device().Config().NumStages
	twoPass := n + 1 // costs one token per call

	const fids = 8
	const callsPerFID = 64
	var wg sync.WaitGroup
	allowed := make([]uint64, fids)
	for i := 0; i < fids; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < callsPerFID; c++ {
				if r.RecircAllowed(uint16(100+i), twoPass) {
					allowed[i]++
				}
			}
		}()
	}
	wg.Wait()

	for i, got := range allowed {
		if got != budget {
			t.Errorf("fid %d: %d passes allowed, want exactly %d", 100+i, got, budget)
		}
	}
	wantThrottled := uint64(fids * (callsPerFID - budget))
	if r.Counters().RecircThrottled.Value() != wantThrottled {
		t.Errorf("RecircThrottled = %d, want %d", r.Counters().RecircThrottled.Value(), wantThrottled)
	}

	// Single-pass programs are never charged, even with the bucket empty.
	if !r.RecircAllowed(100, n) {
		t.Error("single-pass program throttled")
	}
}

// Grant epochs count 1..127 and wrap back to 1; 0 always means "no epoch".
func TestEpochLifecycle(t *testing.T) {
	r := testRuntime(t)
	const fid = 13
	if r.Epoch(fid) != 0 {
		t.Fatalf("epoch before admission = %d, want 0", r.Epoch(fid))
	}
	installCacheGrant(t, r, fid, 0, 64)
	if r.Epoch(fid) != 1 {
		t.Fatalf("epoch after first grant = %d, want 1", r.Epoch(fid))
	}
	r.RemoveGrant(fid)
	if !r.Revoked(fid) {
		t.Fatal("RemoveGrant must mark the FID revoked")
	}
	if r.Epoch(fid) != 1 {
		t.Errorf("epoch must survive revocation, got %d", r.Epoch(fid))
	}
	installCacheGrant(t, r, fid, 0, 64)
	if r.Revoked(fid) {
		t.Error("fresh grant must clear revocation")
	}
	if r.Epoch(fid) != 2 {
		t.Errorf("epoch after re-grant = %d, want 2", r.Epoch(fid))
	}

	// Wrap: 127 -> 1, skipping 0.
	if got := nextEpoch(packet.EpochMax); got != 1 {
		t.Errorf("nextEpoch(127) = %d, want 1", got)
	}
	if got := nextEpoch(0); got != 1 {
		t.Errorf("nextEpoch(0) = %d, want 1", got)
	}
}
