// Package runtime implements the ActiveRMT switch runtime: the shared
// "P4 program" that turns a generic RMT device into an active-packet
// executor (Section 3 of the paper). It compiles each admitted program
// version into a plan over the full instruction set (every opcode is
// available in every stage, Section 3.1), enforces per-FID memory
// protection through the stage TCAMs, applies runtime address translation
// (ADDR_MASK/ADDR_OFFSET), manages FID admission and quarantine state, and
// converts between active packets and PHVs.
package runtime

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"activermt/internal/packet"
	"activermt/internal/rmt"
)

// AccessGrant places one memory access of an admitted program: the logical
// stage the access executes in (which fixes the physical stage) and the
// granted word region [Lo, Hi) in that stage's register array.
type AccessGrant struct {
	Logical int
	Lo, Hi  uint32
}

// Grant is the full data-plane footprint of one admitted application
// instance, as computed by the allocator for the selected mutant.
type Grant struct {
	FID      uint16
	Accesses []AccessGrant
}

// grantRecord remembers what was installed for a FID so it can be removed.
type grantRecord struct {
	protStages  []int // physical stages holding a TCAM region
	xlateStages []int // physical stages holding a translate entry
}

// Runtime is the ActiveRMT switch runtime: a configured RMT device plus the
// FID admission, protection, and translation state the shared P4 program
// maintains.
type Runtime struct {
	dev *rmt.Device

	admitted    map[uint16]*grantRecord
	quarantined map[uint16]bool
	// epochs is the per-FID grant epoch: bumped on every grant install so
	// capsules stamped against an older grant are detectably stale. Entries
	// survive RemoveGrant so a re-admitted FID continues the sequence
	// rather than reissuing epochs an attacker may have observed.
	epochs map[uint16]uint8
	// revoked marks FIDs whose grant was removed: their packets hard-drop
	// instead of passing through, so revoked tenants cannot keep using the
	// pipeline as a (stateless) forwarding service.
	revoked map[uint16]bool

	guard GuardHook

	// Section 7 extensions (see extensions.go).
	recircPolicy RecircPolicy
	recircNow    func() time.Duration
	recircMu     sync.Mutex
	recirc       map[uint16]*recircState
	privilege    map[uint16]uint8
	mirror       map[uint32]uint32

	// snap is the published control-state snapshot the packet path and
	// ingress guard read (see snapshot.go); snapGen numbers publications.
	snap    atomic.Pointer[ctrlView]
	snapGen uint64

	// passLat caches the device's per-pass latency so the hot path does not
	// copy the whole Config struct per packet. Immutable after New.
	passLat time.Duration

	// Plan state (see specialize.go): planTab is the published
	// compiled-plan table for the current snapshot pair, and planMu
	// serializes plan inserts against table resets (and guards planGen, the
	// last table generation issued).
	planTab atomic.Pointer[planTable]
	planMu  sync.Mutex
	planGen uint64

	// ctr is the counter ledger, live from construction; tel holds the
	// attach-only gauges and recorders (nil when disabled). See
	// telemetry.go.
	ctr *Counters
	tel *Telemetry
}

// GuardHook receives data-plane isolation events as they happen. The runtime
// deliberately depends only on this narrow interface (internal/guard
// implements it) so the execute path stays free of policy.
type GuardHook interface {
	// MemFault reports a protection fault: fid touched addr in the given
	// physical stage; owner/owned identify the tenant whose installed
	// region contains addr, when there is one.
	MemFault(fid uint16, stage int, addr uint32, owner uint16, owned bool)
	// RecircThrottled reports a packet dropped by the recirculation
	// fairness controller.
	RecircThrottled(fid uint16)
	// RevokedDrop reports a packet dropped because its FID's grant was
	// revoked.
	RevokedDrop(fid uint16)
}

// SetGuardHook installs the isolation-event sink (nil disables reporting).
func (r *Runtime) SetGuardHook(h GuardHook) { r.guard = h }

// New builds a device from cfg and publishes the runtime's (empty) control
// state.
func New(cfg rmt.Config) (*Runtime, error) {
	dev, err := rmt.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		dev:         dev,
		admitted:    make(map[uint16]*grantRecord),
		quarantined: make(map[uint16]bool),
		epochs:      make(map[uint16]uint8),
		revoked:     make(map[uint16]bool),
		passLat:     dev.Config().PassLatency,
		ctr:         newCounters(),
	}
	r.publish()
	return r, nil
}

// Device exposes the underlying device (for controllers and tests).
func (r *Runtime) Device() *rmt.Device { return r.dev }

// Admitted reports whether fid has been admitted, per the published
// control snapshot (the same state the packet path executes against).
func (r *Runtime) Admitted(fid uint16) bool { return r.view().admitted[fid] }

// Quarantined reports whether fid's packets are currently deactivated.
func (r *Runtime) Quarantined(fid uint16) bool { return r.view().quarantined[fid] }

// Revoked reports whether fid once held a grant that has been removed (and
// has not been re-admitted since).
func (r *Runtime) Revoked(fid uint16) bool { return r.view().revoked[fid] }

// Epoch returns fid's current grant epoch (0: no grant ever installed).
// Allocation responses carry it to the client, program capsules echo it
// back, and the guard drops capsules whose echo is stale.
func (r *Runtime) Epoch(fid uint16) uint8 { return r.view().epochs[fid] }

// NextEpoch returns the epoch the next grant installation will assign —
// what the controller stamps into reallocation notices sent before the
// install lands.
func (r *Runtime) NextEpoch(fid uint16) uint8 { return nextEpoch(r.epochs[fid]) }

// nextEpoch advances a 7-bit epoch, skipping 0 so "no epoch" stays
// unambiguous.
func nextEpoch(e uint8) uint8 {
	if e >= packet.EpochMax {
		return 1
	}
	return e + 1
}

func (r *Runtime) bumpEpoch(fid uint16) {
	r.epochs[fid] = nextEpoch(r.epochs[fid])
	delete(r.revoked, fid)
}

// Deactivate suspends execution of fid's programs during a reallocation so
// clients observe a consistent memory snapshot (Section 4.3). Packets still
// forward, unexecuted.
func (r *Runtime) Deactivate(fid uint16) {
	r.quarantined[fid] = true
	r.addTableOps(1)
	r.publish()
}

// Reactivate resumes execution of fid's programs.
func (r *Runtime) Reactivate(fid uint16) {
	delete(r.quarantined, fid)
	r.addTableOps(1)
	r.publish()
}

// InstallGrant installs (or replaces) the protection and translation entries
// for a grant, zeroes the granted regions, and admits the FID. It returns
// the number of table operations performed, the currency of the
// provisioning-time model (Figure 8a: provisioning is dominated by table
// updates).
func (r *Runtime) InstallGrant(g Grant) (int, error) {
	ops := 0
	if old, ok := r.admitted[g.FID]; ok {
		ops += r.removeRecord(g.FID, old)
	}
	// Every return path below republishes: the TCAM and translation tables
	// have been touched (install or rollback), and packets must only ever
	// execute against a fully committed view.
	defer func() {
		r.dev.RebuildView()
		r.publish()
	}()
	rec := &grantRecord{}
	prevLogical := -1
	for _, a := range g.Accesses {
		if a.Lo >= a.Hi {
			return ops, fmt.Errorf("runtime: empty grant region [%d,%d)", a.Lo, a.Hi)
		}
		phys := r.dev.PhysicalStage(a.Logical)
		st := r.dev.Stage(phys)
		if !st.Registers.InRange(a.Hi - 1) {
			return ops, fmt.Errorf("runtime: grant [%d,%d) exceeds stage memory", a.Lo, a.Hi)
		}
		region := rmt.Region{FID: g.FID, Lo: a.Lo, Hi: a.Hi}
		if err := st.Prot.Install(region); err != nil {
			// Roll back everything installed so far.
			r.removeRecord(g.FID, rec)
			return ops, err
		}
		ops += region.Cost()
		rec.protStages = append(rec.protStages, phys)
		if err := st.Registers.Zero(a.Lo, a.Hi); err != nil {
			r.removeRecord(g.FID, rec)
			return ops, err
		}

		// Translation entries for this access cover the logical window
		// between the previous access and this one, so any
		// ADDR_MASK/ADDR_OFFSET the program executes there targets this
		// access's region (Section 3.2).
		tr := translateFor(a)
		for l := prevLogical + 1; l < a.Logical; l++ {
			p := r.dev.PhysicalStage(l)
			r.dev.Stage(p).SetTranslate(g.FID, tr)
			rec.xlateStages = append(rec.xlateStages, p)
			ops++
		}
		prevLogical = a.Logical
	}
	r.admitted[g.FID] = rec
	r.bumpEpoch(g.FID)
	r.addTableOps(uint64(ops) + 1) // +1 for the admission gate entry
	return ops + 1, nil
}

// translateFor derives the mask/offset pair for a region: the mask is the
// largest power-of-two window that fits the region (mask-based translation
// needs power-of-two windows; arbitrary-size regions use the floor), the
// offset is the region base.
func translateFor(a AccessGrant) rmt.Translate {
	size := a.Hi - a.Lo
	if size == 0 {
		return rmt.Translate{}
	}
	k := bits.Len32(size) - 1
	return rmt.Translate{Mask: 1<<k - 1, Offset: a.Lo}
}

// AdmitStateless admits a FID with no memory grant — for programs that keep
// no switch state (e.g. the NOP latency probes of Figure 8b).
func (r *Runtime) AdmitStateless(fid uint16) {
	if _, ok := r.admitted[fid]; !ok {
		r.admitted[fid] = &grantRecord{}
		r.bumpEpoch(fid)
		r.addTableOps(1)
		r.publish()
	}
}

// RemoveGrant removes all state for fid and returns the table operations
// performed.
func (r *Runtime) RemoveGrant(fid uint16) int {
	rec, ok := r.admitted[fid]
	if !ok {
		return 0
	}
	ops := r.removeRecord(fid, rec) + 1 // +1 for the admission gate entry
	delete(r.admitted, fid)
	delete(r.quarantined, fid)
	r.revoked[fid] = true
	r.addTableOps(uint64(ops))
	r.dev.RebuildView()
	r.publish()
	return ops
}

func (r *Runtime) removeRecord(fid uint16, rec *grantRecord) int {
	ops := 0
	for _, p := range rec.protStages {
		ops += r.dev.Stage(p).Prot.Remove(fid)
	}
	for _, p := range rec.xlateStages {
		ops += r.dev.Stage(p).ClearTranslate(fid)
	}
	rec.protStages = rec.protStages[:0]
	rec.xlateStages = rec.xlateStages[:0]
	return ops
}

// Snapshot reads fid's region in the given physical stage via the
// control-plane register API (one of the paper's two state-extraction
// paths).
func (r *Runtime) Snapshot(fid uint16, phys int) ([]uint32, rmt.Region, error) {
	st := r.dev.Stage(phys)
	reg, ok := st.Prot.Region(fid)
	if !ok {
		return nil, rmt.Region{}, fmt.Errorf("runtime: fid %d has no region in stage %d", fid, phys)
	}
	words, err := st.Registers.Snapshot(reg.Lo, reg.Hi)
	return words, reg, err
}

// RestoreRegion writes a captured register image into fid's currently
// installed region in the given physical stage — the restore half of the
// memsync snapshot->restore protocol, used by online defragmentation to
// carry tenant state across a migration. Words beyond the region are
// truncated (a migrated region never grows, but a partial image must not
// escape the grant). Restore updates parity, so migrated state does not
// trip the corruption sweep. Returns the words written.
func (r *Runtime) RestoreRegion(fid uint16, phys int, words []uint32) (int, error) {
	st := r.dev.Stage(phys)
	reg, ok := st.Prot.Region(fid)
	if !ok {
		return 0, fmt.Errorf("runtime: fid %d has no region in stage %d", fid, phys)
	}
	n := len(words)
	if max := int(reg.Hi - reg.Lo); n > max {
		n = max
	}
	if err := st.Registers.Restore(reg.Lo, words[:n]); err != nil {
		return 0, err
	}
	return n, nil
}

// Output is one packet emitted by program execution (ExecuteCapsule).
type Output struct {
	Active   *packet.Active
	ToSender bool
	DstSet   bool
	Dst      uint32
	Dropped  bool
	IsClone  bool
	Executed bool // false when the program was passed through unexecuted
	Latency  time.Duration
	Passes   int
}

// RegionFor returns fid's installed region in a physical stage (for tests
// and the controller).
func (r *Runtime) RegionFor(fid uint16, phys int) (rmt.Region, bool) {
	return r.dev.Stage(phys).Prot.Region(fid)
}

// AdmittedFIDs returns every admitted FID in ascending order — the
// control-plane census a restarted controller starts from.
func (r *Runtime) AdmittedFIDs() []uint16 {
	out := make([]uint16, 0, len(r.admitted))
	for fid := range r.admitted {
		out = append(out, fid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AccessStages returns the physical stages of fid's installed regions in
// grant order — the order of its memory accesses, i.e. logical-stage order.
func (r *Runtime) AccessStages(fid uint16) []int {
	rec, ok := r.admitted[fid]
	if !ok {
		return nil
	}
	return append([]int(nil), rec.protStages...)
}

// InstalledRegions reads fid's protected regions out of every stage's TCAM:
// the switch-resident allocation state that survives a controller crash.
func (r *Runtime) InstalledRegions(fid uint16) map[int]rmt.Region {
	out := map[int]rmt.Region{}
	for s := 0; s < r.dev.NumStages(); s++ {
		if reg, ok := r.dev.Stage(s).Prot.Region(fid); ok {
			out[s] = reg
		}
	}
	return out
}

// Corruption is one parity-sweep hit: a word whose SRAM content no longer
// matches its parity bit, attributed to the owning FID when the address
// falls inside a protected region.
type Corruption struct {
	Stage int
	Addr  uint32
	FID   uint16
	Owned bool
}

// SweepCorruption runs the parity scrub pass over every stage's register
// array and returns the corrupted words found, in (stage, addr) order.
func (r *Runtime) SweepCorruption() []Corruption {
	var out []Corruption
	for s := 0; s < r.dev.NumStages(); s++ {
		st := r.dev.Stage(s)
		for _, addr := range st.Registers.SweepParity(0, uint32(st.Registers.Len())) {
			c := Corruption{Stage: s, Addr: addr}
			c.FID, c.Owned = st.Prot.OwnerOf(addr)
			out = append(out, c)
		}
	}
	return out
}

// ScrubWord acknowledges a corrupted word so subsequent sweeps stop
// reporting it; the caller is responsible for quarantining the block.
func (r *Runtime) ScrubWord(phys int, addr uint32) {
	r.dev.Stage(phys).Registers.Scrub(addr)
}
