package telemetry

import (
	"fmt"
	"sync"
)

// Verdict is the final disposition of a recorded capsule.
type Verdict uint8

// Capsule verdicts, in escalating order of refusal.
const (
	VerdictExecuted    Verdict = iota // ran to completion
	VerdictDropped                    // ran and was dropped (DROP / recirc limit / fault policy)
	VerdictPassthrough                // unadmitted FID, forwarded unexecuted
	VerdictQuarantined                // dropped: FID deactivated during a reallocation
	VerdictRevoked                    // dropped: grant revoked
	VerdictThrottled                  // dropped: recirculation fairness controller
)

// String returns the verdict's exposition name.
func (v Verdict) String() string {
	switch v {
	case VerdictExecuted:
		return "executed"
	case VerdictDropped:
		return "dropped"
	case VerdictPassthrough:
		return "passthrough"
	case VerdictQuarantined:
		return "quarantined"
	case VerdictRevoked:
		return "revoked"
	case VerdictThrottled:
		return "throttled"
	}
	return "unknown"
}

// MarshalText renders the verdict name into JSON expositions.
func (v Verdict) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText parses a verdict name (for consumers of the JSON
// exposition; unknown names round-trip to VerdictExecuted+1 range end).
func (v *Verdict) UnmarshalText(b []byte) error {
	for c := VerdictExecuted; c <= VerdictThrottled; c++ {
		if c.String() == string(b) {
			*v = c
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown verdict %q", b)
}

// FlightEntry is one sampled capsule trace: enough to reconstruct what a
// tenant's packet did — or why it was refused — when debugging an eviction
// or a guard escalation after the fact.
type FlightEntry struct {
	Seq       uint64  `json:"seq"`  // recorder-local sequence number
	Lane      int     `json:"lane"` // id of the executor that recorded the entry
	FID       uint16  `json:"fid"`
	Epoch     uint8   `json:"epoch"` // grant epoch the capsule executed against
	Verdict   Verdict `json:"verdict"`
	Stages    uint16  `json:"stages"` // stage slots traversed
	Passes    uint8   `json:"passes"` // pipeline passes (recirculations + 1)
	Faulted   bool    `json:"faulted,omitempty"`
	Addr      uint32  `json:"addr"`                 // final memory address register
	FaultAddr uint32  `json:"fault_addr,omitempty"` // faulting address, when Faulted
	// Live is resolved at snapshot time against the published control view:
	// true iff (FID, Epoch) is still the currently installed grant. A
	// revoked or superseded grant's entries are therefore never live.
	Live bool `json:"live"`
}

// Flight-recorder defaults: one entry per DefaultFlightPeriod executed
// capsules is recorded (refusals are always recorded), into a ring of
// DefaultFlightSize entries per executor.
const (
	DefaultFlightSize   = 256
	DefaultFlightPeriod = 32
)

// FlightRecorder is a fixed-size ring of sampled capsule traces. Each
// executor owns one: the sampling countdown is a plain single-writer field,
// and the ring itself is mutex-protected so the scrape goroutine can copy it out without
// racing the writer. Record never allocates.
type FlightRecorder struct {
	exec   int
	period uint64
	left   uint64 // capsules until the next sample; touched only by the owning executor

	mu    sync.Mutex
	ring  []FlightEntry
	next  int
	total uint64
}

// NewFlightRecorder returns a recorder for executor exec with a ring of
// size entries, sampling one in period executed capsules. size and period
// are clamped to at least 1.
func NewFlightRecorder(exec, size int, period uint64) *FlightRecorder {
	if size < 1 {
		size = 1
	}
	if period < 1 {
		period = 1
	}
	return &FlightRecorder{exec: exec, period: period, left: period, ring: make([]FlightEntry, size)}
}

// ShouldSample advances the sampling clock and reports whether this capsule
// is due for recording. Only the owning executor may call it.
func (f *FlightRecorder) ShouldSample() bool {
	f.left--
	if f.left != 0 {
		return false
	}
	f.left = f.period
	return true
}

// Record stores one entry, overwriting the oldest when the ring is full.
// Seq and Lane (the executor id) are filled in by the recorder.
func (f *FlightRecorder) Record(e FlightEntry) {
	f.mu.Lock()
	f.total++
	e.Seq = f.total
	e.Lane = f.exec
	f.ring[f.next] = e
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
	}
	f.mu.Unlock()
}

// Recorded returns the total entries ever recorded (including overwritten).
func (f *FlightRecorder) Recorded() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Entries returns the ring contents, oldest first.
func (f *FlightRecorder) Entries() []FlightEntry {
	return f.appendEntries(nil)
}

// appendEntries appends the ring contents, oldest first, to dst.
func (f *FlightRecorder) appendEntries(dst []FlightEntry) []FlightEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.ring)
	if f.total < uint64(n) {
		n = int(f.total)
		return append(dst, f.ring[:n]...)
	}
	dst = append(dst, f.ring[f.next:]...)
	return append(dst, f.ring[:f.next]...)
}
