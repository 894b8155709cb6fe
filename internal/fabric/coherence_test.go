package fabric_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/fabric"
)

// TestCoherenceNoStaleHit drives the write-invalidate protocol end to end
// on a 4-switch fabric: after a write from one leaf, a read from a leaf
// that previously held the object must never return the old value — the
// invalidation evicts its copy, and the miss re-reads through the
// already-updated home spine or server.
func TestCoherenceNoStaleHit(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, srvIP := addServer(t, f, 1)

	const k0, k1 = 0xAB, 0xCD
	const v1, v2 = 111, 222
	srv.Store[apps.KeyOf(k0, k1)] = v1

	cc, err := fabric.NewCoherentCache(fc, 9, []int{0, 1}, srv.MAC(), srvIP)
	if err != nil {
		t.Fatal(err)
	}
	type resp struct {
		value uint32
		hit   bool
	}
	got := make(map[uint32]resp)
	cc.OnResponse = func(leaf int, seq, value uint32, hit bool) { got[seq] = resp{value, hit} }

	// Warm from leaf 0: the populate-fwd capsule installs v1 at leaf0, the
	// home spine, and leaf1 (the server's leaf hosts a replica) en route.
	if err := cc.Warm(0, []apps.KVMsg{{Key0: k0, Key1: k1, Value: v1}}); err != nil {
		t.Fatal(err)
	}
	f.RunFor(50 * time.Millisecond)

	get := func(leaf int) resp {
		t.Helper()
		seq, err := cc.Get(leaf, k0, k1)
		if err != nil {
			t.Fatal(err)
		}
		runUntil(t, f, time.Second, "GET answered", func() bool {
			_, ok := got[seq]
			return ok
		})
		return got[seq]
	}

	// Both leaves see v1; leaf 1's read registers it in the directory.
	if r := get(0); !r.hit || r.value != v1 {
		t.Fatalf("pre-write read on leaf0 = (%d, hit=%v), want (%d, hit)", r.value, r.hit, v1)
	}
	if r := get(1); !r.hit || r.value != v1 {
		t.Fatalf("pre-write read on leaf1 = (%d, hit=%v), want (%d, hit)", r.value, r.hit, v1)
	}

	// Write v2 from leaf 0: invalidations first, then the update capsule.
	if _, err := cc.Put(0, k0, k1, v2); err != nil {
		t.Fatal(err)
	}
	if cc.InvalSent == 0 {
		t.Fatal("write to a shared key sent no invalidations")
	}
	runUntil(t, f, time.Second, "write ack and invalidation delivery", func() bool {
		return cc.WriteAcks >= 1 && cc.InvalDelivered >= 1
	})
	if srv.Store[apps.KeyOf(k0, k1)] != v2 {
		t.Fatalf("server store = %d, want %d", srv.Store[apps.KeyOf(k0, k1)], v2)
	}

	// The no-stale-hit assertion: leaf 1 must never see v1 again. Its own
	// copy was evicted, so the read either hits the updated home spine or
	// misses through to the server — both return v2.
	if r := get(1); r.value != v2 {
		t.Fatalf("post-invalidate read on leaf1 returned stale %d, want %d (hit=%v)", r.value, v2, r.hit)
	}
	// The writer's leaf holds the new value directly.
	if r := get(0); !r.hit || r.value != v2 {
		t.Fatalf("post-write read on leaf0 = (%d, hit=%v), want (%d, hit)", r.value, r.hit, v2)
	}
	// And leaf 1 converges back to hitting after its re-fill.
	if r := get(1); r.value != v2 {
		t.Fatalf("re-read on leaf1 = %d, want %d", r.value, v2)
	}
}

// TestCoherenceWriteFromRemoteLeaf writes from the leaf that did NOT warm
// the cache, exercising invalidation toward the warmer's leaf.
func TestCoherenceWriteFromRemoteLeaf(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, srvIP := addServer(t, f, 1)

	const k0, k1 = 0x11, 0x22
	const v1, v2 = 7, 8
	srv.Store[apps.KeyOf(k0, k1)] = v1

	cc, err := fabric.NewCoherentCache(fc, 11, []int{0, 1}, srv.MAC(), srvIP)
	if err != nil {
		t.Fatal(err)
	}
	var last struct {
		seq   uint32
		value uint32
	}
	cc.OnResponse = func(leaf int, seq, value uint32, hit bool) { last.seq, last.value = seq, value }

	if err := cc.Warm(0, []apps.KVMsg{{Key0: k0, Key1: k1, Value: v1}}); err != nil {
		t.Fatal(err)
	}
	f.RunFor(50 * time.Millisecond)

	// Write from leaf 1: leaf 0's warmed copy must be invalidated.
	if _, err := cc.Put(1, k0, k1, v2); err != nil {
		t.Fatal(err)
	}
	runUntil(t, f, time.Second, "write ack and invalidation delivery", func() bool {
		return cc.WriteAcks >= 1 && cc.InvalDelivered >= 1
	})

	seq, err := cc.Get(0, k0, k1)
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, f, time.Second, "read after remote write", func() bool { return last.seq == seq })
	if last.value != v2 {
		t.Fatalf("leaf0 read %d after remote write, want %d", last.value, v2)
	}
}

// TestHomeEvictionSparesNeighbourBuckets pins the home eviction to one
// bucket. A bucket's key halves and value live at addr, addr+1 and addr+2
// in the FID's first, second and third access stages, so buckets overlap
// word ranges. A write from the server's leaf bypasses the home spine and
// evicts the written key's bucket there: a later read of that key must not
// hit the home's old value, and a key two buckets below — whose value word
// sits at the evicted address in the third stage — must keep its value.
func TestHomeEvictionSparesNeighbourBuckets(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, srvIP := addServer(t, f, 1)
	cc, err := fabric.NewCoherentCache(fc, 9, []int{0, 1}, srv.MAC(), srvIP)
	if err != nil {
		t.Fatal(err)
	}

	// Client-side bucket addressing, as the cache computes it.
	lo, buckets := cc.Set().Placement.Accesses[0].Range.Lo, uint32(cc.Capacity())
	bucket := func(k0, k1 uint32) uint32 {
		var b [8]byte
		binary.BigEndian.PutUint32(b[:4], k0)
		binary.BigEndian.PutUint32(b[4:], k1)
		h := fnv.New32a()
		h.Write(b[:])
		return lo + h.Sum32()%buckets
	}
	const a0, a1, b1 = 0x1, 0x1, 0x7
	target := bucket(a0, a1) - 2
	b0 := uint32(1)
	for ; bucket(b0, b1) != target; b0++ {
		if b0 > 1<<22 {
			t.Fatal("no key two buckets below the written key")
		}
	}
	const vAOld, vA, vB = 110, 111, 222
	srv.Store[apps.KeyOf(a0, a1)] = vAOld
	srv.Store[apps.KeyOf(b0, b1)] = vB

	// Warm A and B from leaf 0: installed at leaf 0, the home spine, and
	// leaf 1.
	if err := cc.Warm(0, []apps.KVMsg{{Key0: a0, Key1: a1, Value: vAOld}, {Key0: b0, Key1: b1, Value: vB}}); err != nil {
		t.Fatal(err)
	}
	f.RunFor(50 * time.Millisecond)

	// Write A from the server's leaf: the commit never crosses the home,
	// so the home evicts A's bucket.
	evictions := cc.HomeEvictions
	if _, err := cc.Put(1, a0, a1, vA); err != nil {
		t.Fatal(err)
	}
	runUntil(t, f, time.Second, "write ack", func() bool { return cc.WriteAcks >= 1 })
	if cc.HomeEvictions != evictions+1 {
		t.Fatalf("home evictions = %d, want %d", cc.HomeEvictions, evictions+1)
	}

	// Drop leaf 0's replica so GETs miss there and reach the home spine.
	if _, ok := f.Leaves[0].Ctrl.ScrubFID(cc.Set().FID); !ok {
		t.Fatal("leaf 0 scrub did not run")
	}
	var got struct {
		seq, value uint32
		hit, done  bool
	}
	cc.OnResponse = func(leaf int, seq, value uint32, hit bool) {
		got.seq, got.value, got.hit, got.done = seq, value, hit, true
	}
	get := func(k0, k1 uint32) (uint32, bool) {
		t.Helper()
		got.done = false
		seq, err := cc.Get(0, k0, k1)
		if err != nil {
			t.Fatal(err)
		}
		runUntil(t, f, time.Second, "GET answered", func() bool { return got.done && got.seq == seq })
		return got.value, got.hit
	}
	if v, hit := get(b0, b1); v != vB || !hit {
		t.Fatalf("GET of the neighbouring key = (%d, hit=%v), want a home hit of %d", v, hit, vB)
	}
	// A's read misses the evicted home and is answered by leaf 1's replica
	// (the commit installed it there) or the server: never the old value.
	if v, hit := get(a0, a1); v != vA {
		t.Fatalf("GET of the written key = (%d, hit=%v), want %d", v, hit, vA)
	}
}
