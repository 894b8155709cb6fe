package runtime

import (
	gort "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/telemetry"
)

// nopProbe keeps no switch state — the toggled tenant below executes it so
// grant install/remove never races the permanent tenant's register traffic.
var nopProbe = isa.MustAssemble("nop-probe", `
RTS
RETURN
`)

// snapGauge extracts one gauge sample from a snapshot by family name and
// rendered label pair ("" for unlabeled gauges).
func snapGauge(s *telemetry.Snapshot, name, labels string) (float64, bool) {
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Name != name {
			continue
		}
		for _, smp := range m.Samples {
			if smp.Labels == labels {
				return smp.Value, true
			}
		}
	}
	return 0, false
}

// TestTelemetryScrapeRacesGrantCommit is the consistency gate for the
// snapshot seqlock: scrapes run concurrently with a control plane that
// repeatedly installs and evicts a tenant's grant (and quarantines another)
// while the dataplane executes capsules for both. Every snapshot must be
// commit-atomic — the admission gauges set together inside one publish()
// must never be observed half-updated — and a flight-recorder entry may
// resolve Live only when the snapshot's own view still holds that exact
// (FID, epoch) grant. Run under -race this also proves the scrape path
// shares no unsynchronized state with commits or the executor.
func TestTelemetryScrapeRacesGrantCommit(t *testing.T) {
	r := testRuntime(t)
	reg := telemetry.NewRegistry()
	r.AttachTelemetry(reg)
	installCacheGrant(t, r, 1, 0, 1024) // permanent tenant: exercises memory

	const toggled = uint16(2)
	const cycles = 200
	done := make(chan struct{})
	var execs atomic.Uint64 // executor loop iterations, for interleaving
	var wg sync.WaitGroup

	// Control plane: install/evict the toggled tenant's (memoryless) grant,
	// with a quarantine round-trip on the permanent tenant mixed in. Between
	// commits it waits for the executor to run a couple of capsules, so both
	// tenants execute against every admission state even at GOMAXPROCS=1.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		progress := func(prev uint64) uint64 {
			for execs.Load() < prev+2 {
				gort.Gosched()
			}
			return execs.Load()
		}
		p := uint64(0)
		for i := 0; i < cycles; i++ {
			if _, err := r.InstallGrant(Grant{FID: toggled}); err != nil {
				t.Errorf("install cycle %d: %v", i, err)
				return
			}
			p = progress(p)
			if i%8 == 0 {
				r.Deactivate(1)
				r.Reactivate(1)
			}
			r.RemoveGrant(toggled)
			p = progress(p)
		}
	}()

	// Dataplane: one executor running both tenants' capsules against
	// whatever view is published. The toggled tenant's capsules land as
	// executed, passthrough, or revoked drops depending on commit timing —
	// refusals force-record into the executor's flight recorder.
	wg.Add(1)
	go func() {
		defer wg.Done()
		res := NewExecResult()
		sink := r.NewExecSink()
		cache := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
		cache.Header.Flags |= packet.FlagPreload
		probe := progPacket(toggled, nopProbe, [4]uint32{})
		for {
			select {
			case <-done:
				return
			default:
			}
			r.ExecuteCapsule(cache, res, sink)
			r.ExecuteCapsule(probe, res, sink)
			execs.Add(1)
			gort.Gosched()
		}
	}()

	// Scrapers: validate commit atomicity on every snapshot. The admitted
	// and revoked gauges are written in the same commit window and — once
	// the toggled tenant has been granted at least once — always sum to 2
	// (fid 1 admitted, fid 2 either admitted or revoked). A torn read of a
	// commit yields 1 or 3.
	scrape := func(snap *telemetry.Snapshot) {
		if !snap.Consistent {
			t.Error("snapshot reported inconsistent")
			return
		}
		admitted, _ := snapGauge(snap, "activermt_runtime_admitted", "")
		revoked, _ := snapGauge(snap, "activermt_runtime_revoked", "")
		epoch2, seen := snapGauge(snap, "activermt_grant_epoch", `fid="2"`)
		if seen && admitted+revoked != 2 {
			t.Errorf("mixed-epoch snapshot: admitted=%v revoked=%v (want sum 2)", admitted, revoked)
		}
		for _, e := range snap.Flights {
			if e.FID != toggled || !e.Live {
				continue
			}
			if revoked != 0 {
				t.Errorf("flight entry (fid=%d epoch=%d) live in a snapshot where the grant is revoked", e.FID, e.Epoch)
			}
			if float64(e.Epoch) != epoch2 {
				t.Errorf("flight entry live at epoch %d but snapshot grant epoch is %v", e.Epoch, epoch2)
			}
		}
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					scrape(reg.Snapshot())
					gort.Gosched()
				}
			}
		}()
	}
	wg.Wait()

	// Terminal state: the toggler's last act was an eviction, so no flight
	// entry for the toggled tenant may survive as live.
	final := reg.Snapshot()
	sawToggled := false
	for _, e := range final.Flights {
		if e.FID != toggled {
			continue
		}
		sawToggled = true
		if e.Live {
			t.Fatalf("final snapshot holds a live flight entry for evicted fid %d (epoch %d, verdict %v)", e.FID, e.Epoch, e.Verdict)
		}
	}
	if !sawToggled {
		t.Fatal("flight recorder holds no entries for the toggled tenant; refusal force-recording is broken")
	}
	if g, _ := snapGauge(final, "activermt_runtime_revoked", ""); g != 1 {
		t.Fatalf("final revoked gauge %v, want 1", g)
	}
}
