package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/guard"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/testbed"
	"activermt/internal/workload"
)

// The switch-churn workload: the paper's single-switch setting. Cache,
// heavy-hitter and load-balancer tenants arrive and depart on a seeded
// Poisson schedule that holds the resident population at a fixed size and
// mix. Elastic caches take every free block, so the switch memory is always
// full and each admission reallocates neighbours. Resident cache tenants
// send a light background of GETs.

// The churn schedule's shape. The population holds churnTarget tenants,
// one of each kind in turn; churn events are a Poisson process with mean
// gap churnMeanGap; each gap carries churnGetsPerOp background GETs; every
// cache tenant owns churnKeys keys and populates the churnHot hottest.
const (
	churnTarget    = 15
	churnMeanGap   = 2 * time.Second
	churnGetsPerOp = 50
	churnKeys      = 256
	churnHot       = 64
)

// cev is one scheduled churn-workload event.
type cev struct {
	due    time.Duration
	kind   uint8 // evArrive, evDepart, evGet
	app    workload.AppKind
	fid    uint16
	keyIdx int32
}

const (
	evArrive = iota
	evDepart
	evGet
)

// tenant is one arrived application.
type tenant struct {
	fid        uint16
	cl         *client.Client
	cache      *apps.Cache
	due        time.Duration // arrival due time (absolute)
	resolved   bool          // admission granted or refused
	granted    bool
	departDue  bool // a departure is waiting for the admission to settle
	releaseReq bool
	seqGet     []int32 // cache sequence number -> get index + 1
	measured   bool    // arrived during the measured schedule
}

type churnSys struct {
	nops    int // arrivals + departures in one schedule
	tb      *testbed.Testbed
	srv     *apps.KVServer
	srvMAC  packet.MAC
	srvIP   netip.Addr
	srvPort *netsim.Port

	pre     []cev // pre-population arrivals (set-up)
	sched   []cev
	tenants map[uint16]*tenant
	order   []*tenant

	// GET oracle state.
	getDue    []time.Duration
	getKey    []uint64
	getDone   []bool
	getTenant []*tenant
	tries     []uint8 // resends per GET
	nget      int
	// Outstanding GETs in issue order, with the time each was last sent,
	// for the retransmission sweep.
	pendingGet  []int32
	pendingSent []time.Duration
	sweeping    bool

	base   time.Duration
	tr     *tracer
	out    *outcome
	replay *replayer
}

func cacheKey(fid uint16, idx int32) (uint32, uint32) {
	return 0xC0000000 | uint32(fid), uint32(idx)
}

// cacheValue is the server's (fixed) value for a key.
func cacheValue(k0, k1 uint32) uint32 {
	h := k0*0x9E3779B1 ^ k1*0x85EBCA77
	return h | 1
}

func newChurn(ops int, seed int64, rp *replayer) (*churnSys, error) {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := &churnSys{nops: ops, tb: tb, tenants: map[uint16]*tenant{}, replay: rp}
	_, s.srvMAC, s.srvIP = tb.NewHostID()
	s.srv = apps.NewKVServer(tb.Eng, s.srvMAC, s.srvIP)
	var ep netsim.Endpoint = s.srv
	if rp != nil {
		ep = &serverTap{r: rp, srv: s.srv}
	}
	_, sp := tb.Attach(ep, s.srvMAC)
	s.srv.Attach(sp)
	s.srvPort = sp
	if rp != nil {
		tap := &switchTap{r: rp, sw: tb.Switch, in: sp.Peer()}
		_, out := netsim.Connect(tb.Eng, tap, 0, s.srv, 0, testbed.DefaultConfig().LinkDelay, testbed.DefaultConfig().LinkBW)
		s.srv.Attach(out)
	}
	s.generate(seed)

	// Set-up: admit the initial population one tenant at a time.
	for _, ev := range s.pre {
		t := s.arrive(ev, false)
		limit := tb.Eng.Now() + 5*time.Second
		for !t.resolved && tb.Eng.Now() < limit && tb.Eng.Step() {
		}
		if !t.resolved {
			return nil, fmt.Errorf("churn set-up: fid %d admission did not settle", t.fid)
		}
	}
	tb.RunFor(time.Second)
	return s, nil
}

// generate draws the pre-population, the churn events and the GET
// background from the seed. The schedule keeps its own view of who is
// resident (workload.Sequence); the program's admission outcomes never
// feed back into it.
func (s *churnSys) generate(seed int64) {
	seq := workload.NewSequence(seed)
	rng := rand.New(rand.NewSource(seed + 1))
	zipf := workload.NewZipf(seed+2, zipfS, uint64(churnKeys))
	// The initial population cycles through the three kinds. From then on
	// departures take the kinds in turn, a random tenant of the kind each
	// time, and each is followed by the arrival of a tenant of the same
	// kind: the population's size and mix stay fixed, and every schedule
	// admits the same number of tenants of each kind.
	kinds := []workload.AppKind{workload.KindCache, workload.KindHeavyHitter, workload.KindLoadBalancer}
	resident := map[workload.AppKind][]uint16{}
	arrive := func(kind workload.AppKind) cev {
		ev := seq.ArrivalOf(kind)
		resident[kind] = append(resident[kind], ev.FID)
		return cev{kind: evArrive, app: kind, fid: ev.FID}
	}
	for i := 0; i < churnTarget; i++ {
		s.pre = append(s.pre, arrive(kinds[i%len(kinds)]))
	}
	var t time.Duration
	at := make([]time.Duration, churnGetsPerOp)
	for i := 0; i < s.nops; i++ {
		gap := time.Duration(rng.ExpFloat64() * float64(churnMeanGap))
		// A fixed number of GETs per gap, at uniform random times in it, so
		// every schedule carries the same data-plane load per churn op.
		for j := range at {
			at[j] = t + time.Duration(rng.Int63n(int64(gap)+1))
		}
		sort.Slice(at, func(a, b int) bool { return at[a] < at[b] })
		caches := resident[workload.KindCache]
		for _, due := range at {
			if len(caches) == 0 {
				break
			}
			fid := caches[rng.Intn(len(caches))]
			s.sched = append(s.sched, cev{due: due, kind: evGet, fid: fid, keyIdx: int32(zipf.Next())})
			s.nget++
		}
		t += gap
		kind := kinds[(i/2)%len(kinds)]
		if i%2 == 1 {
			ev := arrive(kind)
			ev.due = t
			s.sched = append(s.sched, ev)
		} else {
			list := resident[kind]
			j := rng.Intn(len(list))
			fid := list[j]
			resident[kind] = append(list[:j], list[j+1:]...)
			seq.Drop(fid)
			s.sched = append(s.sched, cev{due: t, kind: evDepart, app: kind, fid: fid})
		}
	}
	// The server holds every cache tenant's keys.
	for _, evs := range [][]cev{s.pre, s.sched} {
		for _, ev := range evs {
			if ev.kind == evArrive && ev.app == workload.KindCache {
				for i := 0; i < churnKeys; i++ {
					k0, k1 := cacheKey(ev.fid, int32(i))
					s.srv.Store[apps.KeyOf(k0, k1)] = cacheValue(k0, k1)
				}
			}
		}
	}
	s.getDue = make([]time.Duration, 0, s.nget)
	s.getKey = make([]uint64, 0, s.nget)
	s.getDone = make([]bool, 0, s.nget)
	s.getTenant = make([]*tenant, 0, s.nget)
	s.tries = make([]uint8, 0, s.nget)
}

// getRetry is how long a GET waits for its answer before the client sends
// it again, and getTries bounds the sends. A query capsule that reaches the
// switch while its tenant is deactivated for reallocation fails execution
// and is dropped; the client retransmits after a timeout (Section 4.3).
const (
	getRetry = 20 * time.Millisecond
	getTries = 5
)

// arrive builds the tenant's application and shim client and requests its
// allocation.
func (s *churnSys) arrive(ev cev, measured bool) *tenant {
	tb := s.tb
	t := &tenant{fid: ev.fid, measured: measured, due: tb.Eng.Now()}
	s.tenants[ev.fid] = t
	s.order = append(s.order, t)
	_, mac, selfIP := tb.NewHostID()
	var svc *client.Service
	var bind func(*client.Client)
	switch ev.app {
	case workload.KindCache:
		c := apps.NewCache(s.srvMAC, selfIP, s.srvIP)
		hot := make([]apps.KVMsg, churnHot)
		for i := range hot {
			k0, k1 := cacheKey(ev.fid, int32(i))
			hot[i] = apps.KVMsg{Key0: k0, Key1: k1, Value: cacheValue(k0, k1)}
		}
		c.SetHotObjects(hot)
		t.cache = c
		svc, bind = apps.CacheService(c), c.Bind
	case workload.KindHeavyHitter:
		h := apps.NewHeavyHitter(50)
		svc, bind = apps.HeavyHitterService(h), h.Bind
	default:
		svc, bind = apps.CheetahSelectService(), func(*client.Client) {}
	}
	prevOp, prevFail := svc.OnOperational, svc.OnFailed
	svc.OnOperational = func(cl *client.Client) {
		if prevOp != nil {
			prevOp(cl)
		}
		s.onOperational(t)
	}
	svc.OnFailed = func(cl *client.Client) {
		if prevFail != nil {
			prevFail(cl)
		}
		s.onFailed(t)
	}
	cl := client.New(tb.Eng, ev.fid, mac, tb.Switch.MAC(), svc)
	cl.Pipeline = client.Pipeline{
		NumStages:  testbed.DefaultConfig().RMT.NumStages,
		NumIngress: testbed.DefaultConfig().RMT.NumIngress,
		MaxPasses:  testbed.DefaultConfig().Alloc.MaxPasses,
	}
	_, hostPort := tb.Attach(cl, mac)
	cl.Attach(hostPort)
	if s.replay != nil {
		tap := &switchTap{r: s.replay, sw: tb.Switch, in: hostPort.Peer()}
		_, out := netsim.Connect(tb.Eng, tap, 0, cl, 0, testbed.DefaultConfig().LinkDelay, testbed.DefaultConfig().LinkBW)
		cl.Attach(out)
	}
	bind(cl)
	if t.cache != nil {
		t.cache.OnResponse = func(seq, value uint32, hit bool) { s.onGet(t, seq, value, hit) }
		if s.replay != nil {
			s.replay.wrapClient(cl, hostPort)
		}
	}
	t.cl = cl
	var err error
	if s.tr != nil {
		m := s.tr.begin(spanRequest, -1)
		err = cl.RequestAllocation()
		s.tr.end(m)
	} else {
		err = cl.RequestAllocation()
	}
	if err != nil && s.out != nil {
		s.out.violate("fid %d: request allocation: %v", ev.fid, err)
	}
	return t
}

func (s *churnSys) onOperational(t *tenant) {
	if !t.resolved {
		t.resolved, t.granted = true, true
		if t.measured {
			s.out.admits++
			s.out.provLat = append(s.out.provLat, s.tb.Eng.Now()-t.due)
		}
		if t.cache != nil {
			t.cache.Populate()
		}
	}
	if t.departDue {
		s.depart(t)
	}
}

func (s *churnSys) onFailed(t *tenant) {
	if t.resolved {
		return
	}
	t.resolved = true
	if t.measured {
		s.out.admits++
		s.out.rejects++
	}
	if t.departDue {
		s.depart(t)
	}
}

// depart releases a tenant once its admission has settled and it is not
// mid-reallocation; a refused tenant holds nothing and simply leaves.
func (s *churnSys) depart(t *tenant) {
	switch {
	case !t.resolved || (t.granted && !t.cl.Operational()):
		t.departDue = true
		return
	case !t.granted:
		t.departDue = false
		return
	}
	t.departDue, t.releaseReq = false, true
	var err error
	if s.tr != nil {
		m := s.tr.begin(spanRelease, -1)
		err = t.cl.Release()
		s.tr.end(m)
	} else {
		err = t.cl.Release()
	}
	if err != nil {
		s.out.violate("fid %d: release: %v", t.fid, err)
	}
}

func (s *churnSys) get(t *tenant, keyIdx int32, i int) {
	k0, k1 := cacheKey(t.fid, keyIdx)
	s.getDue = append(s.getDue, s.tb.Eng.Now())
	s.getKey = append(s.getKey, apps.KeyOf(k0, k1))
	s.getDone = append(s.getDone, false)
	s.getTenant = append(s.getTenant, t)
	s.tries = append(s.tries, 0)
	s.out.gets++
	s.send(len(s.getDue)-1, i)
}

// send transmits GET g (again) and queues it for the retransmission sweep.
func (s *churnSys) send(g, i int) {
	t := s.getTenant[g]
	k0, k1 := uint32(s.getKey[g]>>32), uint32(s.getKey[g])
	var seq uint32
	if s.tr != nil {
		m := s.tr.begin(spanGet, i)
		seq = t.cache.Get(k0, k1)
		s.tr.end(m)
	} else {
		seq = t.cache.Get(k0, k1)
	}
	for int(seq) >= len(t.seqGet) {
		t.seqGet = append(t.seqGet, make([]int32, len(t.seqGet)+64)...)
	}
	t.seqGet[seq] = int32(g + 1)
	s.pendingGet = append(s.pendingGet, int32(g))
	s.pendingSent = append(s.pendingSent, s.tb.Eng.Now())
	if !s.sweeping {
		s.sweeping = true
		s.tb.Eng.Schedule(getRetry, s.sweep)
	}
}

// sweep resends every GET unanswered for getRetry. It runs only while GETs
// are outstanding, once per interval.
func (s *churnSys) sweep() {
	now := s.tb.Eng.Now()
	n := 0
	for n < len(s.pendingGet) && now-s.pendingSent[n] >= getRetry {
		n++
	}
	due := append([]int32(nil), s.pendingGet[:n]...)
	s.pendingGet = append(s.pendingGet[:0], s.pendingGet[n:]...)
	s.pendingSent = append(s.pendingSent[:0], s.pendingSent[n:]...)
	for _, g := range due {
		if s.getDone[g] {
			continue
		}
		if int(s.tries[g])+1 >= getTries {
			continue // left unanswered: scored when the run ends
		}
		s.out.getRetries++
		s.tries[g]++
		s.send(int(g), -1)
	}
	if len(s.pendingGet) == 0 {
		s.sweeping = false
		return
	}
	s.tb.Eng.At(s.pendingSent[0]+getRetry, s.sweep)
}

func (s *churnSys) onGet(t *tenant, seq, value uint32, hit bool) {
	if int(seq) >= len(t.seqGet) || t.seqGet[seq] == 0 {
		return
	}
	g := int(t.seqGet[seq] - 1)
	if s.getDone[g] {
		return
	}
	s.getDone[g] = true
	s.out.getAnswered++
	if hit {
		s.out.getHits++
	}
	s.out.getLat = append(s.out.getLat, s.tb.Eng.Now()-s.getDue[g])
	k := s.getKey[g]
	if want := s.srv.Store[k]; value != want {
		s.out.violate("fid %d get key %#x returned %d, server store holds %d (hit %v)", t.fid, k, value, want, hit)
	}
}

func (s *churnSys) run(tr *tracer) *outcome {
	eng := s.tb.Eng
	s.tr = tr
	s.out = &outcome{ops: s.nops, background: true}
	s.base = eng.Now()
	next := 0
	var fire func()
	fire = func() {
		i := next
		next++
		ev := s.sched[i]
		if late := eng.Now() - (s.base + ev.due); late != 0 {
			s.out.lateness = maxDur(s.out.lateness, late)
		}
		switch ev.kind {
		case evArrive:
			s.arrive(ev, true)
		case evDepart:
			if t := s.tenants[ev.fid]; t != nil {
				s.depart(t)
			}
		case evGet:
			if t := s.tenants[ev.fid]; t != nil && t.cache != nil {
				s.get(t, ev.keyIdx, i)
			}
		}
		if next < len(s.sched) {
			eng.At(s.base+s.sched[next].due, fire)
		}
	}
	if len(s.sched) > 0 {
		eng.At(s.base+s.sched[0].due, fire)
	}
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

func (s *churnSys) finish() {
	out := s.out
	for g, ok := range s.getDone {
		if !ok {
			out.unfinished(fmt.Sprintf("get %d (key %#x) never answered", g, s.getKey[g]))
		}
	}
	for _, t := range s.order {
		if !t.measured {
			if t.departDue {
				out.unfinished(fmt.Sprintf("pre-populated fid %d departure never ran", t.fid))
			}
			continue
		}
		switch {
		case !t.resolved:
			out.unfinished(fmt.Sprintf("fid %d admission stuck in %v", t.fid, t.cl.State()))
		case t.departDue:
			out.unfinished(fmt.Sprintf("fid %d departure never ran (state %v)", t.fid, t.cl.State()))
		case t.releaseReq && t.cl.State() != client.Idle:
			out.unfinished(fmt.Sprintf("fid %d release stuck in %v", t.fid, t.cl.State()))
		}
	}
	if err := s.tb.Ctrl.Allocator().AuditBooks(); err != nil {
		out.violate("%v", err)
	}
	for _, fd := range guard.AuditRuntime(s.tb.RT) {
		out.violate("isolation audit: %v", fd)
	}
	out.frag = s.tb.Ctrl.Allocator().Fragmentation()
}

func (s *churnSys) counts() layerCounts {
	var c layerCounts
	c.addSwitch(s.tb.Switch)
	if s.tb.Guard != nil {
		c.checked += s.tb.Guard.Checked()
	}
	for _, t := range s.order {
		c.clientRx += t.cl.Received
		c.portRx += t.cl.Port().RxFrames
	}
	c.serverReqs = s.srv.Requests + s.srv.Puts
	c.portRx += s.srvPort.RxFrames
	c.portRx += switchPortRx(s.tb.Switch)
	return c
}

func (s *churnSys) allocLogs() []allocLog {
	return []allocLog{{name: "switch", ctrl: s.tb.Ctrl, cfg: testbed.DefaultConfig().Alloc, since: s.base, lookup: func(fid uint16) *serviceRef {
		if t := s.tenants[fid]; t != nil {
			return &serviceRef{fid: fid, cl: t.cl}
		}
		return nil
	}}}
}
