package switchd

// ScrubFID zeroes every register word inside fid's installed regions, stage
// by stage, through the control plane. This is the reliable counterpart to
// a data-plane wipe capsule: a capsule can be lost on a lossy or flapping
// link and there is no acknowledgment for a sentinel, whereas the control
// channel to a live controller is the same path the allocation protocol
// already trusts for table updates. The fabric's coherent cache uses it to
// scrub a home replica that may hold values newer traffic has overwritten
// elsewhere.
//
// Returns the number of words zeroed and whether the scrub ran at all: a
// crashed controller cannot reach its switch, so callers must keep the
// region marked dirty and retry after Restart.
func (c *Controller) ScrubFID(fid uint16) (int, bool) {
	if !c.alive {
		return 0, false
	}
	words := 0
	dev := c.rt.Device()
	for s, reg := range c.rt.InstalledRegions(fid) {
		if err := dev.Stage(s).Registers.Zero(reg.Lo, reg.Hi); err != nil {
			continue
		}
		words += int(reg.Hi - reg.Lo)
	}
	return words, true
}

// ScrubWord evicts the bucket at addr from fid's memory through the control
// plane — a per-key eviction. A bucket spans one word per memory access:
// MEM_READ advances MAR, so the i-th access (in logical-stage order) holds
// the bucket's word addr+i in that access's stage, and that is the word
// zeroed there. The coherent cache uses it when a write's acknowledged
// commit provably bypassed a replica (rerouted around it), so whatever that
// replica holds for the key is unconfirmed: zeroing turns a possible stale
// hit into a miss the server refills, and leaves the neighbouring buckets
// intact. Returns the words zeroed; same liveness contract as ScrubFID.
func (c *Controller) ScrubWord(fid uint16, addr uint32) (int, bool) {
	if !c.alive {
		return 0, false
	}
	words := 0
	dev := c.rt.Device()
	for i, phys := range c.rt.AccessStages(fid) {
		w := addr + uint32(i)
		if reg, ok := c.rt.RegionFor(fid, phys); !ok || w < reg.Lo || w >= reg.Hi {
			continue
		}
		if err := dev.Stage(phys).Registers.Zero(w, w+1); err != nil {
			continue
		}
		words++
	}
	return words, true
}
