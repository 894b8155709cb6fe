package testbed

import (
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/workload"
)

func newBed(t *testing.T) *Testbed {
	t.Helper()
	tb, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// addCache spins up one cache client+app against the given server.
func addCache(t *testing.T, tb *Testbed, fid uint16, srv *apps.KVServer, srvIP [4]byte) (*apps.Cache, *client.Client) {
	t.Helper()
	_, _, selfIP := tb.NewHostID()
	c := apps.NewCache(srv.MAC(), selfIP, IPFor(999))
	svc := apps.CacheService(c)
	cl := tb.AddClient(fid, svc)
	c.Bind(cl)
	return c, cl
}

func TestAllocationHandshake(t *testing.T) {
	tb := newBed(t)
	srv := apps.NewKVServer(tb.Eng, MACFor(200), IPFor(999))
	_, sp := tb.Attach(srv, srv.MAC())
	srv.Attach(sp)

	cache, cl := addCache(t, tb, 1, srv, [4]byte{})
	_ = cache
	if err := cl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitOperational(cl, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	pl := cl.Placement()
	if pl == nil || len(pl.Accesses) != 3 {
		t.Fatalf("placement = %+v", pl)
	}
	// The switch installed matching regions.
	for _, ap := range pl.Accesses {
		reg, ok := tb.RT.RegionFor(1, ap.Logical%20)
		if !ok || reg.Lo != ap.Range.Lo || reg.Hi != ap.Range.Hi {
			t.Errorf("region mismatch at stage %d: %+v vs %+v", ap.Logical%20, reg, ap)
		}
	}
	if cl.Program("main") == nil || cl.Program("populate") == nil {
		t.Error("programs not synthesized")
	}
}

func TestCacheEndToEnd(t *testing.T) {
	tb := newBed(t)
	srv := apps.NewKVServer(tb.Eng, MACFor(200), IPFor(999))
	_, sp := tb.Attach(srv, srv.MAC())
	srv.Attach(sp)

	cache, cl := addCache(t, tb, 1, srv, [4]byte{})
	if err := cl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitOperational(cl, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Server holds 64 objects; cache the first 16.
	var hot []apps.KVMsg
	for i := 0; i < 64; i++ {
		k0, k1, v := uint32(0xA000+i), uint32(0xB000+i), uint32(0xC000+i)
		srv.Store[apps.KeyOf(k0, k1)] = v
		if i < 16 {
			hot = append(hot, apps.KVMsg{Key0: k0, Key1: k1, Value: v})
		}
	}
	cache.SetHotObjects(hot)
	cache.Populate()
	tb.RunFor(10 * time.Millisecond)
	if cache.PopAcks != 16 {
		t.Fatalf("populate acks = %d, want 16", cache.PopAcks)
	}

	// Query every object: cached ones hit (value served by the switch),
	// others reach the server.
	responses := map[uint32]uint32{}
	hits := map[uint32]bool{}
	cache.OnResponse = func(seq, value uint32, hit bool) {
		responses[seq] = value
		hits[seq] = hit
	}
	seqOf := map[uint32]int{}
	for i := 0; i < 64; i++ {
		seq := cache.Get(uint32(0xA000+i), uint32(0xB000+i))
		seqOf[seq] = i
	}
	tb.RunFor(50 * time.Millisecond)

	if len(responses) != 64 {
		t.Fatalf("responses = %d, want 64", len(responses))
	}
	hitCount := 0
	for seq, i := range seqOf {
		want := uint32(0xC000 + i)
		if responses[seq] != want {
			t.Errorf("object %d: value %#x, want %#x (hit=%v)", i, responses[seq], want, hits[seq])
		}
		if hits[seq] {
			hitCount++
		}
	}
	// All 16 hot objects hit unless bucket collisions evicted a few.
	if hitCount < 10 || hitCount > 16 {
		t.Errorf("hits = %d, want ~16", hitCount)
	}
	if srv.Requests != uint64(64-hitCount) {
		t.Errorf("server saw %d GETs, want %d", srv.Requests, 64-hitCount)
	}
	if cache.HitRate() <= 0 {
		t.Error("hit rate not computed")
	}
}

func TestCacheMissBeforeAllocation(t *testing.T) {
	tb := newBed(t)
	srv := apps.NewKVServer(tb.Eng, MACFor(200), IPFor(999))
	_, sp := tb.Attach(srv, srv.MAC())
	srv.Attach(sp)

	cache, _ := addCache(t, tb, 1, srv, [4]byte{})
	srv.Store[apps.KeyOf(1, 2)] = 42
	got := uint32(0)
	cache.OnResponse = func(seq, value uint32, hit bool) {
		if hit {
			t.Error("hit without allocation")
		}
		got = value
	}
	cache.Get(1, 2) // unactivated: the shim pauses active transmissions
	tb.RunFor(5 * time.Millisecond)
	if got != 42 {
		t.Fatalf("server value = %d", got)
	}
}

func TestReallocationProtocol(t *testing.T) {
	tb := newBed(t)
	srv := apps.NewKVServer(tb.Eng, MACFor(200), IPFor(999))
	_, sp := tb.Attach(srv, srv.MAC())
	srv.Attach(sp)

	// Fill the cache-reachable stages with four caches; under worst-fit
	// the fourth shares stages with an earlier one (Figure 9b).
	caches := make([]*apps.Cache, 0, 4)
	clients := make([]*client.Client, 0, 4)
	for i := 0; i < 4; i++ {
		c, cl := addCache(t, tb, uint16(i+1), srv, [4]byte{})
		caches = append(caches, c)
		clients = append(clients, cl)
	}
	realloc := 0
	for i := 0; i < 4; i++ {
		if err := clients[i].RequestAllocation(); err != nil {
			t.Fatal(err)
		}
		if err := tb.WaitOperational(clients[i], 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	tb.RunFor(2 * time.Second)
	for i := 0; i < 4; i++ {
		if clients[i].State() != client.Operational {
			t.Errorf("client %d state %v after settling", i, clients[i].State())
		}
		realloc += int(clients[i].Reallocations)
	}
	if realloc == 0 {
		t.Error("fourth arrival disturbed no one (expected sharing)")
	}
	// All regions installed on the switch remain isolated.
	for i := 0; i < 4; i++ {
		pl := clients[i].Placement()
		if pl == nil {
			t.Fatalf("client %d has no placement", i)
		}
		for _, ap := range pl.Accesses {
			reg, ok := tb.RT.RegionFor(uint16(i+1), ap.Logical%20)
			if !ok || reg.Lo != ap.Range.Lo || reg.Hi != ap.Range.Hi {
				t.Errorf("client %d: switch/client placement diverged at stage %d", i, ap.Logical%20)
			}
		}
	}
}

func TestReleaseExpandsAndAcks(t *testing.T) {
	tb := newBed(t)
	var cls []*client.Client
	// Force sharing: many caches into the same stage range.
	for i := 0; i < 6; i++ {
		c := apps.NewCache(MACFor(200), IPFor(300+i), IPFor(999))
		cl := tb.AddClient(uint16(i+1), apps.CacheService(c))
		c.Bind(cl)
		cls = append(cls, cl)
		if err := cl.RequestAllocation(); err != nil {
			t.Fatal(err)
		}
		if err := tb.WaitOperational(cl, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	before := cls[1].Placement().Accesses[0].Range
	if err := cls[0].Release(); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(3 * time.Second)
	if cls[0].State() != client.Idle {
		t.Errorf("releasing client state = %v", cls[0].State())
	}
	if tb.Ctrl.Allocator().NumApps() != 5 {
		t.Errorf("resident apps = %d, want 5", tb.Ctrl.Allocator().NumApps())
	}
	grew := false
	for _, cl := range cls[1:] {
		r := cl.Placement().Accesses[0].Range
		if r.Hi-r.Lo > before.Hi-before.Lo {
			grew = true
		}
	}
	_ = grew // growth depends on which stages the released app held
}

func TestHeavyHitterEndToEnd(t *testing.T) {
	tb := newBed(t)
	srv := apps.NewKVServer(tb.Eng, MACFor(200), IPFor(999))
	_, sp := tb.Attach(srv, srv.MAC())
	srv.Attach(sp)

	hh := apps.NewHeavyHitter(20)
	cl := tb.AddClient(7, apps.HeavyHitterService(hh))
	hh.Bind(cl)
	hh.SnapshotFn = tb.SnapshotFn()
	if err := cl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitOperational(cl, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Send a skewed stream: key 0xHOT dominates.
	z := workload.NewZipf(7, 1.3, 256)
	keys := make([][2]uint32, 256)
	for i := range keys {
		keys[i] = [2]uint32{uint32(0x1000 + i), uint32(0x2000 + i)}
	}
	for i := 0; i < 2000; i++ {
		k := keys[z.Next()]
		hh.Observe(k[0], k[1], nil, srv.MAC())
		tb.RunFor(10 * time.Microsecond)
	}
	tb.RunFor(10 * time.Millisecond)

	hot, err := hh.HotKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 {
		t.Fatal("no hot keys detected")
	}
	// The hottest Zipf key must be among them.
	found := false
	for _, kv := range hot {
		if kv.Key0 == keys[0][0] {
			found = true
		}
	}
	if !found {
		t.Errorf("hottest key missing from %d hot keys", len(hot))
	}
	// Cold keys must be a minority of the table.
	if len(hot) > 64 {
		t.Errorf("hot set = %d keys, threshold too permissive", len(hot))
	}
}

func TestCheetahEndToEnd(t *testing.T) {
	tb := newBed(t)
	// Two backend echo servers.
	s1 := apps.NewEchoServer(tb.Eng, MACFor(201))
	p1, pp1 := tb.Attach(s1, s1.MAC())
	s1.Attach(pp1)
	s2 := apps.NewEchoServer(tb.Eng, MACFor(202))
	p2, pp2 := tb.Attach(s2, s2.MAC())
	s2.Attach(pp2)

	lb := apps.NewCheetah(0x5EED, 2)
	selCl := tb.AddClient(21, apps.CheetahSelectService())
	routeCl := tb.AddClient(22, apps.CheetahRouteService())
	lb.Select = selCl
	lb.Route = routeCl

	var cookie uint32
	gotCookie := false
	selCl.Handler = func(c *client.Client, f *packet.Frame) {
		if f.Active != nil && f.Active.Args[1] != 0 {
			cookie = f.Active.Args[1]
			gotCookie = true
		}
	}
	if err := selCl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitOperational(selCl, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := routeCl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitOperational(routeCl, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	lb.SetupPool([]uint32{uint32(p1), uint32(p2)})
	tb.RunFor(5 * time.Millisecond)

	// SYN: the switch picks a server and computes the cookie.
	tuple := packet.FiveTuple{Src: IPFor(50), Dst: IPFor(60), SrcPort: 1111, DstPort: 80, Protocol: packet.ProtoTCP}
	payload := apps.BuildUDP(tuple.Src, tuple.Dst, tuple.SrcPort, tuple.DstPort, []byte("SYN"))
	lb.ActivateSYN(payload, MACFor(250) /* VIP: unknown MAC, SET_DST overrides */)
	tb.RunFor(5 * time.Millisecond)
	if s1.Echoed+s2.Echoed != 1 {
		t.Fatalf("SYN reached %d servers, want 1", s1.Echoed+s2.Echoed)
	}
	if !gotCookie {
		t.Fatal("cookie not echoed back")
	}
	lb.LearnCookie(tuple, cookie)

	// Data packets with the cookie route to the SAME server.
	first := s1.Echoed == 1
	for i := 0; i < 5; i++ {
		lb.ActivateData(tuple, payload, MACFor(250))
		tb.RunFor(2 * time.Millisecond)
	}
	if first && (s1.Echoed != 6 || s2.Echoed != 0) {
		t.Errorf("flow split: s1=%d s2=%d", s1.Echoed, s2.Echoed)
	}
	if !first && (s2.Echoed != 6 || s1.Echoed != 0) {
		t.Errorf("flow split: s1=%d s2=%d", s1.Echoed, s2.Echoed)
	}

	// A second flow round-robins to the other server.
	tuple2 := tuple
	tuple2.SrcPort = 2222
	payload2 := apps.BuildUDP(tuple2.Src, tuple2.Dst, tuple2.SrcPort, tuple2.DstPort, []byte("SYN"))
	lb.ActivateSYN(payload2, MACFor(250))
	tb.RunFor(5 * time.Millisecond)
	if s1.Echoed == 0 || s2.Echoed == 0 {
		t.Errorf("round robin failed: s1=%d s2=%d", s1.Echoed, s2.Echoed)
	}
}

func TestMemSyncReadWrite(t *testing.T) {
	tb := newBed(t)
	ms := apps.NewMemSync()
	cl := tb.AddClient(31, apps.MemSyncService(4))
	ms.Bind(cl)
	if err := cl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitOperational(cl, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := ms.Region()
	if !ok || hi-lo != 4*256 {
		t.Fatalf("region = [%d,%d)", lo, hi)
	}
	var wrote, read bool
	ms.Write(10, 0xFEED, func(v uint32) { wrote = true })
	tb.RunFor(5 * time.Millisecond)
	if !wrote {
		t.Fatal("write not acknowledged")
	}
	ms.Read(10, func(v uint32) {
		read = true
		if v != 0xFEED {
			t.Errorf("read %#x, want 0xFEED", v)
		}
	})
	tb.RunFor(5 * time.Millisecond)
	if !read {
		t.Fatal("read not answered")
	}
	if ms.Outstanding() != 0 {
		t.Errorf("outstanding = %d", ms.Outstanding())
	}
}

func TestStatelessAdmission(t *testing.T) {
	tb := newBed(t)
	cl := tb.AddClient(41, apps.CheetahRouteService())
	if err := cl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitOperational(cl, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !tb.RT.Admitted(41) {
		t.Error("stateless fid not admitted")
	}
	if tb.Ctrl.Allocator().NumApps() != 0 {
		t.Error("stateless fid consumed allocator state")
	}
}

func TestAllocationFailureNotifiesClient(t *testing.T) {
	tb := newBed(t)
	failed := 0
	// Exhaust HH capacity (16-block rows, one mutant): ~23 fit per stage.
	for i := 0; i < 40; i++ {
		hh := apps.NewHeavyHitter(10)
		svc := apps.HeavyHitterService(hh)
		svc.OnFailed = func(c *client.Client) { failed++ }
		cl := tb.AddClient(uint16(100+i), svc)
		hh.Bind(cl)
		if err := cl.RequestAllocation(); err != nil {
			t.Fatal(err)
		}
		tb.RunFor(500 * time.Millisecond)
	}
	if failed == 0 {
		t.Fatal("no admission failures after exhausting memory")
	}
	// Failures are recorded and fast relative to successes (Figure 5a).
	var failDur, okDur time.Duration
	var nf, nok int
	for _, r := range tb.Ctrl.Records {
		if r.Failed {
			failDur += r.End - r.Start
			nf++
		} else {
			okDur += r.End - r.Start
			nok++
		}
	}
	if nf == 0 || nok == 0 {
		t.Fatalf("records: %d failed, %d ok", nf, nok)
	}
	if failDur/time.Duration(nf) >= okDur/time.Duration(nok) {
		t.Errorf("failed admissions (%v avg) should be faster than successful (%v avg)",
			failDur/time.Duration(nf), okDur/time.Duration(nok))
	}
}

func TestProvisioningRecordsBreakdown(t *testing.T) {
	tb := newBed(t)
	for i := 0; i < 5; i++ {
		c := apps.NewCache(MACFor(200), IPFor(300+i), IPFor(999))
		cl := tb.AddClient(uint16(i+1), apps.CacheService(c))
		c.Bind(cl)
		cl.RequestAllocation()
		if err := tb.WaitOperational(cl, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if len(tb.Ctrl.Records) != 5 {
		t.Fatalf("records = %d", len(tb.Ctrl.Records))
	}
	for i, r := range tb.Ctrl.Records {
		if r.Failed {
			t.Errorf("record %d failed", i)
		}
		if r.TableOps <= 0 || r.TableTime <= 0 {
			t.Errorf("record %d: no table work (%d ops)", i, r.TableOps)
		}
		if r.End <= r.Start {
			t.Errorf("record %d: no elapsed time", i)
		}
		// Table updates dominate provisioning (Figure 8a's finding).
		if r.TableTime < r.Compute {
			t.Errorf("record %d: table %v < compute %v", i, r.TableTime, r.Compute)
		}
	}
}

// frameCounter counts frames delivered to a host.
type frameCounter struct{ frames int }

func (f *frameCounter) Receive(frame []byte, p *netsim.Port) { f.frames++ }

func TestMirrorService(t *testing.T) {
	tb := newBed(t)
	// Destination server and a collector host.
	srv := apps.NewKVServer(tb.Eng, MACFor(200), IPFor(999))
	_, sp := tb.Attach(srv, srv.MAC())
	srv.Attach(sp)
	collector := &frameCounter{}
	colPort, _ := tb.Attach(collector, MACFor(201))

	m := apps.NewMirror()
	cl := tb.AddClient(5, apps.MirrorService())
	m.Bind(cl)
	if err := cl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitOperational(cl, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// The controller installs the clone session's collector port.
	tb.RT.SetMirrorSession(cl.FID(), apps.MirrorSessionID, uint32(colPort))

	// Ten activated packets toward the server: the server sees the
	// originals, the collector sees the clones.
	for i := 0; i < 10; i++ {
		msg := apps.KVMsg{Op: apps.KVGet, Key0: uint32(i), Key1: 1}
		payload := apps.BuildUDP(IPFor(5), IPFor(999), 40000, apps.KVPort, msg.Encode())
		m.Activate(payload, srv.MAC())
		tb.RunFor(time.Millisecond)
	}
	tb.RunFor(10 * time.Millisecond)
	if srv.Requests != 10 {
		t.Errorf("server saw %d originals, want 10", srv.Requests)
	}
	if collector.frames != 10 {
		t.Errorf("collector saw %d clones, want 10", collector.frames)
	}
	// Clones cost recirculations (bandwidth inflation, Section 7.2).
	if tb.RT.Device().Counters().Recirculations.Value() == 0 {
		t.Error("FORK clones should recirculate")
	}
}
