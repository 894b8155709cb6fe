package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"activermt/internal/apps"
	"activermt/internal/fabric"
	"activermt/internal/guard"
	"activermt/internal/netsim"
	"activermt/internal/workload"
)

// The fabric workloads: a 2-leaf/1-spine fabric running the coherent
// replicated cache (replicas on both leaves and the home spine), the KV
// server on leaf 1, and open-loop GET/PUT traffic from frontends on both
// leaves.

// fabricParams shapes one fabric workload.
type fabricParams struct {
	ops  int     // GETs+PUTs in one schedule
	rate float64 // virtual ops per second, all clients together
	// keysPerBucket sets the key universe relative to cache capacity:
	// below 1 the hot set fits, above 1 most keys cannot be cached.
	keysPerBucket float64
	zipf          bool    // Zipf key choice (else uniform, the lowest skew)
	putShare      float64 // fraction of ops that are PUTs
	// ownBuckets draws only keys that hash to distinct cache buckets, so
	// the whole key set fits the cache.
	ownBuckets bool
}

// zipfS is the skew of the fabric-get-hit key draws. math/rand's Zipf (which
// workload.Zipf wraps) needs s > 1, so 1.01 is the closest it gets to the
// 0.99 of common KV traces.
const zipfS = 1.01

// fop is one scheduled fabric op.
type fop struct {
	due   time.Duration // offset from the schedule's start
	key   int32
	value uint32 // PUT value; 0 for GETs
	leaf  uint8
	put   bool
}

type fabricSys struct {
	p   fabricParams
	f   *fabric.Fabric
	cc  *fabric.CoherentCache
	srv *apps.KVServer
	// srvPort is the server's NIC (its receive counter is part of the
	// frame count).
	srvPort *netsim.Port

	keys [][2]uint32
	ops  []fop
	// owner maps a value to the key that value was written to: initial
	// values are 1..len(keys), PUT values follow in schedule order, so each
	// key's values increase with issue order.
	owner []int32

	// Oracle state.
	base      time.Duration
	seqOp     []int32 // cache sequence number -> op index + 1
	done      []bool
	floorAt   []uint32 // per GET: the key's acked floor when issued
	floor     []uint32 // per key: largest acknowledged value
	issued    []uint32 // per key: largest value issued
	busy      []bool   // per key: a PUT in flight
	deferHead []int32  // per key: first PUT waiting for the key (op+1)
	deferTail []int32
	deferNext []int32 // per op: next waiting PUT (op+1)
	tr        *tracer
	out       *outcome
	replay    *replayer // non-nil on the replay twin
}

// newFabric builds and warms the system, and generates the seeded
// schedule. rp, when non-nil, wires the replay taps (replay.go).
func newFabric(p fabricParams, seed int64, rp *replayer) (*fabricSys, error) {
	cfg := fabric.DefaultConfig(2, 1)
	f, err := fabric.New(cfg)
	if err != nil {
		return nil, err
	}
	fc := fabric.NewController(f)
	srvMAC, srvIP := f.NewHostID()
	srv := apps.NewKVServer(f.Eng, srvMAC, srvIP)
	s := &fabricSys{p: p, f: f, srv: srv, replay: rp}
	var ep netsim.Endpoint = srv
	if rp != nil {
		ep = &serverTap{r: rp, srv: srv}
	}
	sp, err := f.AttachHost(1, ep, srvMAC)
	if err != nil {
		return nil, err
	}
	srv.Attach(sp)
	s.srvPort = sp
	cc, err := fabric.NewCoherentCache(fc, 1, []int{0, 1}, srvMAC, srvIP)
	if err != nil {
		return nil, err
	}
	s.cc = cc
	capacity := cc.Capacity()
	if capacity <= 0 {
		return nil, fmt.Errorf("fabric: coherent cache placed without capacity")
	}
	nkeys := int(p.keysPerBucket * float64(capacity))
	s.generate(seed, nkeys, capacity)

	// Warm both leaf replicas (and the home spine, which every warm install
	// crosses) with the first keys, at most one per bucket.
	warm := nkeys
	if warm > capacity {
		warm = capacity
	}
	objs := make([]apps.KVMsg, warm)
	for i := range objs {
		objs[i] = apps.KVMsg{Key0: s.keys[i][0], Key1: s.keys[i][1], Value: uint32(i + 1)}
	}
	for _, leaf := range []int{0, 1} {
		if err := cc.Warm(leaf, objs); err != nil {
			return nil, err
		}
	}
	f.RunFor(100 * time.Millisecond)

	cc.OnResponse = s.onResponse
	cc.OnWriteAck = s.onWriteAck
	if rp != nil {
		s.wireReplay(cfg)
	}
	return s, nil
}

// generate draws keys, initial values and the op schedule from the seed.
func (s *fabricSys) generate(seed int64, nkeys, capacity int) {
	rng := rand.New(rand.NewSource(seed))
	s.keys = make([][2]uint32, nkeys)
	s.owner = make([]int32, 1, nkeys+1+s.p.ops)
	used := map[uint32]bool{}
	for i := range s.keys {
		// k1 = i keeps keys distinct and off the invalidation sentinel.
		k := [2]uint32{rng.Uint32(), uint32(i)}
		for s.p.ownBuckets && used[cacheBucket(k, capacity)] {
			k[0] = rng.Uint32()
		}
		used[cacheBucket(k, capacity)] = true
		s.keys[i] = k
		s.srv.Store[apps.KeyOf(k[0], k[1])] = uint32(i + 1)
		s.owner = append(s.owner, int32(i))
	}
	var zipf *workload.Zipf
	if s.p.zipf {
		zipf = workload.NewZipf(seed+1, zipfS, uint64(nkeys))
	}
	s.ops = make([]fop, s.p.ops)
	var t time.Duration
	for i := range s.ops {
		t += time.Duration(rng.ExpFloat64() / s.p.rate * float64(time.Second))
		op := fop{due: t, leaf: uint8(rng.Intn(2))}
		if s.p.putShare > 0 && rng.Float64() < s.p.putShare {
			op.put = true
			op.key = int32(rng.Intn(nkeys))
			op.value = uint32(len(s.owner))
			s.owner = append(s.owner, op.key)
		} else if zipf != nil {
			op.key = int32(zipf.Next())
		} else {
			op.key = int32(rng.Intn(nkeys))
		}
		s.ops[i] = op
	}
	n := len(s.ops)
	s.done = make([]bool, n)
	s.floorAt = make([]uint32, n)
	s.deferNext = make([]int32, n)
	s.seqOp = make([]int32, 2*n+64)
	s.floor = make([]uint32, nkeys)
	s.issued = make([]uint32, nkeys)
	for i := range s.floor {
		s.floor[i] = uint32(i + 1)
		s.issued[i] = uint32(i + 1)
	}
	s.busy = make([]bool, nkeys)
	s.deferHead = make([]int32, nkeys)
	s.deferTail = make([]int32, nkeys)
}

// run executes the whole schedule open-loop in virtual time: op i is issued
// by an engine event at exactly its due time, whatever the state of earlier
// ops. The engine then drains.
func (s *fabricSys) run(tr *tracer) *outcome {
	eng := s.f.Eng
	s.tr = tr
	s.out = &outcome{ops: len(s.ops)}
	s.base = eng.Now()
	next := 0
	var issue func()
	issue = func() {
		i := next
		next++
		op := &s.ops[i]
		if late := eng.Now() - (s.base + op.due); late != 0 {
			s.out.lateness = maxDur(s.out.lateness, late)
		}
		if op.put {
			s.enqueuePut(i)
		} else {
			s.get(i)
		}
		if next < len(s.ops) {
			eng.At(s.base+s.ops[next].due, issue)
		}
	}
	eng.At(s.base+s.ops[0].due, issue)
	if tr == nil {
		for eng.Step() {
		}
	} else {
		for tr.step(eng) {
		}
	}
	s.finish()
	return s.out
}

func (s *fabricSys) mapSeq(seq uint32, i int) {
	for int(seq) >= len(s.seqOp) {
		s.seqOp = append(s.seqOp, make([]int32, len(s.seqOp))...)
	}
	s.seqOp[seq] = int32(i + 1)
}

func (s *fabricSys) get(i int) {
	op := &s.ops[i]
	k := s.keys[op.key]
	s.floorAt[i] = s.floor[op.key]
	s.out.gets++
	var seq uint32
	var err error
	if s.tr != nil {
		m := s.tr.begin(spanGet, i)
		seq, err = s.cc.Get(int(op.leaf), k[0], k[1])
		s.tr.end(m)
	} else {
		seq, err = s.cc.Get(int(op.leaf), k[0], k[1])
	}
	if err != nil {
		s.out.violate("get op %d: %v", i, err)
		return
	}
	s.mapSeq(seq, i)
}

// enqueuePut issues a PUT, or queues it behind the key's write in flight:
// the protocol admits one writer per key, and queueing keeps every key's
// writes in schedule order without changing the generated inputs.
func (s *fabricSys) enqueuePut(i int) {
	key := s.ops[i].key
	if !s.busy[key] {
		s.put(i)
		return
	}
	if s.deferTail[key] == 0 {
		s.deferHead[key] = int32(i + 1)
	} else {
		s.deferNext[s.deferTail[key]-1] = int32(i + 1)
	}
	s.deferTail[key] = int32(i + 1)
}

func (s *fabricSys) put(i int) {
	op := &s.ops[i]
	k := s.keys[op.key]
	s.busy[op.key] = true
	s.issued[op.key] = op.value
	s.out.puts++
	var seq uint32
	var err error
	if s.tr != nil {
		m := s.tr.begin(spanPut, i)
		seq, err = s.cc.Put(int(op.leaf), k[0], k[1], op.value)
		s.tr.end(m)
	} else {
		seq, err = s.cc.Put(int(op.leaf), k[0], k[1], op.value)
	}
	if err != nil {
		s.out.violate("put op %d: %v", i, err)
		return
	}
	s.mapSeq(seq, i)
}

// opFor resolves a response to its op; false for duplicates and strays.
func (s *fabricSys) opFor(seq uint32, put bool) (int, bool) {
	if int(seq) >= len(s.seqOp) || s.seqOp[seq] == 0 {
		return 0, false
	}
	i := int(s.seqOp[seq] - 1)
	if s.done[i] || s.ops[i].put != put {
		return 0, false
	}
	s.done[i] = true
	return i, true
}

func (s *fabricSys) onResponse(leaf int, seq, value uint32, hit bool) {
	i, ok := s.opFor(seq, false)
	if !ok {
		return
	}
	op := &s.ops[i]
	s.out.getAnswered++
	s.out.getLat = append(s.out.getLat, s.f.Eng.Now()-(s.base+op.due))
	if hit {
		s.out.getHits++
	}
	// The value must be one written to this key, no older than the floor
	// acknowledged before the GET was issued (no stale read), and no newer
	// than the latest PUT issued.
	key := op.key
	if int(value) >= len(s.owner) || s.owner[value] != key || value < s.floorAt[i] || value > s.issued[key] {
		s.out.violate("get op %d key %d returned %d (floor %d, latest issued %d, hit %v)",
			i, key, value, s.floorAt[i], s.issued[key], hit)
		return
	}
	// With every write to the key acknowledged before the GET was issued,
	// the server's store is the ground truth.
	if s.floorAt[i] == s.issued[key] {
		k := s.keys[key]
		if want := s.srv.Store[apps.KeyOf(k[0], k[1])]; value != want {
			s.out.violate("get op %d key %d returned %d, server store holds %d", i, key, value, want)
		}
	}
}

func (s *fabricSys) onWriteAck(leaf int, seq, value uint32) {
	i, ok := s.opFor(seq, true)
	if !ok {
		return
	}
	op := &s.ops[i]
	s.out.putAcked++
	s.out.putLat = append(s.out.putLat, s.f.Eng.Now()-(s.base+op.due))
	if value != op.value {
		s.out.violate("put op %d acked value %d, wrote %d", i, value, op.value)
	}
	key := op.key
	if op.value > s.floor[key] {
		s.floor[key] = op.value
	}
	s.busy[key] = false
	if h := s.deferHead[key]; h != 0 {
		j := int(h - 1)
		s.deferHead[key] = s.deferNext[j]
		if s.deferHead[key] == 0 {
			s.deferTail[key] = 0
		}
		s.put(j)
	}
}

// finish scores unanswered ops and runs the end-of-run audits.
func (s *fabricSys) finish() {
	out := s.out
	for i := range s.ops {
		if !s.done[i] {
			out.unfinished(fmt.Sprintf("op %d (put=%v) never completed", i, s.ops[i].put))
		}
	}
	for key, v := range s.issued {
		k := s.keys[key]
		if got := s.srv.Store[apps.KeyOf(k[0], k[1])]; got != v {
			out.violate("key %d: server store holds %d after the run, last write was %d", key, got, v)
		}
	}
	for _, n := range s.f.Nodes() {
		if fr := n.Ctrl.Allocator().Fragmentation(); fr > out.frag {
			out.frag = fr
		}
		if err := n.Ctrl.Allocator().AuditBooks(); err != nil {
			out.violate("%s: %v", n.Name, err)
		}
		for _, fd := range guard.AuditRuntime(n.RT) {
			out.violate("%s isolation audit: %v", n.Name, fd)
		}
	}
}

// counts reads the program's public counters summed over every layer
// instance; the difference across a run gives per-op counts.
func (s *fabricSys) counts() layerCounts {
	var c layerCounts
	for _, n := range s.f.Nodes() {
		c.addSwitch(n.Switch)
		c.portRx += switchPortRx(n.Switch)
		if n.Guard != nil {
			c.checked += n.Guard.Checked()
		}
	}
	for _, m := range s.cc.Set().Members {
		c.clientRx += m.Client.Received
		c.portRx += m.Client.Port().RxFrames
	}
	c.serverReqs = s.srv.Requests + s.srv.Puts
	c.portRx += s.srvPort.RxFrames
	return c
}

// allocLogs lists every node's controller with the services its
// admissions used, for the allocator replay.
func (s *fabricSys) allocLogs() []allocLog {
	var logs []allocLog
	svcs := map[string]*serviceRef{}
	for _, m := range s.cc.Set().Members {
		svcs[m.Node.Name] = &serviceRef{fid: s.cc.Set().FID, cl: m.Client}
	}
	for _, n := range s.f.Nodes() {
		logs = append(logs, allocLog{name: n.Name, ctrl: n.Ctrl, cfg: s.f.Config().Alloc, since: s.base, lookup: func(fid uint16) *serviceRef {
			if r := svcs[n.Name]; r != nil && r.fid == fid {
				return r
			}
			return nil
		}})
	}
	return logs
}

// wireReplay routes every host's transmissions through a tap that delivers
// them into the leaf switch itself (same link delay and bandwidth, so the
// simulation is unchanged) and replays a sample, and wraps the frontends'
// reply handlers the same way.
func (s *fabricSys) wireReplay(cfg fabric.Config) {
	rp := s.replay
	for _, m := range s.cc.Set().Members {
		if !m.Node.Leaf {
			continue
		}
		cl := m.Client
		tap := &switchTap{r: rp, sw: s.f.Leaves[m.Leaf].Switch, in: cl.Port().Peer()}
		_, clPort := netsim.Connect(s.f.Eng, tap, 0, cl, 0, cfg.HostLinkDelay, cfg.LinkBW)
		rp.wrapClient(cl, cl.Port())
		cl.Attach(clPort)
	}
	tap := &switchTap{r: rp, sw: s.f.Leaves[1].Switch, in: s.srvPort.Peer()}
	_, srvOut := netsim.Connect(s.f.Eng, tap, 0, s.srv, 0, cfg.HostLinkDelay, cfg.LinkBW)
	s.srv.Attach(srvOut)
}

// cacheBucket is the cache's client-side key hash (FNV-1a over the key's
// eight bytes, modulo the bucket count), the address translation the paper
// performs at the client.
func cacheBucket(k [2]uint32, capacity int) uint32 {
	h := fnv.New32a()
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], k[0])
	binary.BigEndian.PutUint32(b[4:], k[1])
	h.Write(b[:])
	return h.Sum32() % uint32(capacity)
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
