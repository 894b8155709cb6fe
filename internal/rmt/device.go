package rmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"activermt/internal/isa"
)

// Translate is a per-(FID, stage) address-translation entry backing the
// ADDR_MASK and ADDR_OFFSET instructions: the switch-resident half of
// runtime address translation (Section 3.2). Mask is applied as a bitwise
// AND; Offset as an addition.
type Translate struct {
	Mask   uint32
	Offset uint32
}

// Stage is one physical match-action stage: instruction semantics are
// device-wide (the paper's runtime installs the full instruction set in
// every stage, and a compiled Plan carries them), while the stage owns its
// register array, its protection TCAM, and its translation entries.
//
// The TCAM and translation map are control-plane builder state: the packet
// path never reads them directly, only the immutable StageView published
// from them (see view.go).
type Stage struct {
	Registers *RegisterArray
	Prot      *TCAM
	xlate     map[uint16]Translate
}

// SetTranslate installs the translation entry for fid in this stage.
func (s *Stage) SetTranslate(fid uint16, t Translate) { s.xlate[fid] = t }

// ClearTranslate removes fid's translation entry; it returns 1 if an entry
// was present (for table-update cost accounting).
func (s *Stage) ClearTranslate(fid uint16) int {
	if _, ok := s.xlate[fid]; !ok {
		return 0
	}
	delete(s.xlate, fid)
	return 1
}

// TranslateFor returns fid's translation entry in this stage.
func (s *Stage) TranslateFor(fid uint16) (Translate, bool) {
	t, ok := s.xlate[fid]
	return t, ok
}

// TranslateEntries returns a copy of this stage's translation table keyed by
// FID. The isolation auditor walks it to prove every translate window stays
// inside a region its owner actually holds.
func (s *Stage) TranslateEntries() map[uint16]Translate {
	out := make(map[uint16]Translate, len(s.xlate))
	for f, t := range s.xlate {
		out[f] = t
	}
	return out
}

// TraceEvent describes one instruction slot as it executes (or is skipped
// by branch predication), for the activeasm tracer and tests.
type TraceEvent struct {
	Logical  int // logical stage (instruction index)
	Stage    int // physical stage
	In       isa.Instruction
	Skipped  bool // predicated off by a pending branch label
	MAR      uint32
	MBR      uint32
	MBR2     uint32
	Complete bool
	Dropped  bool
}

// Device is the simulated RMT switch pipeline.
type Device struct {
	cfg    Config
	stages []*Stage
	trace  func(TraceEvent)

	// view is the published pipeline snapshot the packet path executes
	// against; viewGen numbers publications.
	view    atomic.Pointer[PipeView]
	viewGen atomic.Uint64

	// ctr is the counter ledger, live from construction; tel holds the
	// attach-only latency histogram and occupancy gauges (nil until a
	// registry is attached). See telemetry.go.
	ctr *Counters
	tel *Telemetry
}

// New constructs a device per cfg, validating architectural parameters.
func New(cfg Config) (*Device, error) {
	if cfg.NumStages <= 0 || cfg.NumIngress <= 0 || cfg.NumIngress > cfg.NumStages {
		return nil, fmt.Errorf("rmt: bad pipeline shape %d/%d", cfg.NumIngress, cfg.NumStages)
	}
	if cfg.StageWords <= 0 || cfg.MaxPasses <= 0 {
		return nil, fmt.Errorf("rmt: bad config %+v", cfg)
	}
	d := &Device{cfg: cfg, stages: make([]*Stage, cfg.NumStages), ctr: newCounters(cfg.NumStages)}
	for i := range d.stages {
		d.stages[i] = &Stage{
			Registers: NewRegisterArray(cfg.StageWords),
			Prot:      NewTCAM(cfg.TCAMEntries),
			xlate:     make(map[uint16]Translate),
		}
	}
	d.RebuildView()
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// NumStages returns the logical pipeline depth.
func (d *Device) NumStages() int { return d.cfg.NumStages }

// NumIngress returns the ingress pipeline depth.
func (d *Device) NumIngress() int { return d.cfg.NumIngress }

// Stage returns physical stage i.
func (d *Device) Stage(i int) *Stage { return d.stages[i] }

// PhysicalStage maps a logical stage (which may exceed NumStages under
// recirculation) to its physical stage index.
func (d *Device) PhysicalStage(logical int) int { return logical % d.cfg.NumStages }

// SetTrace installs a per-instruction trace hook (nil disables tracing).
// ExecPlan reports every instruction slot it traverses to the hook.
func (d *Device) SetTrace(fn func(TraceEvent)) { d.trace = fn }

// hashSeed selects the stage-local hash unit a HASH instruction uses. A
// zero selector picks the stage-seeded function, so consecutive HASH
// instructions (as in the count-min sketch of Appendix B.1) compute
// independent functions; a nonzero selector picks a fixed function usable
// consistently from any stage (as the Cheetah cookie needs) — mirroring the
// Tofino's multiple selectable hash units.
func hashSeed(stageIdx int, selector uint8) uint32 {
	if selector != 0 {
		return uint32(selector)
	}
	return uint32(stageIdx)*0x9E3779B9 + 1
}

// StageHash is the deterministic per-stage hash function; clients replicate
// it for client-side address computation (Section 3.2's client-side
// translation).
func StageHash(stageIdx int, words [NumHashWords]uint32) uint32 {
	return FixedHash(hashSeed(stageIdx, 0), words)
}

// FixedHash is the stage-independent seeded hash.
func FixedHash(seed uint32, words [NumHashWords]uint32) uint32 {
	var buf [4 + 4*NumHashWords]byte
	binary.BigEndian.PutUint32(buf[0:], seed)
	for i, w := range words {
		binary.BigEndian.PutUint32(buf[4+4*i:], w)
	}
	return crc32.ChecksumIEEE(buf[:])
}
