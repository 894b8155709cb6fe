package main

import (
	"fmt"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/chaos"
	"activermt/internal/guard"
	"activermt/internal/runtime"
	"activermt/internal/secapps"
	"activermt/internal/testbed"
)

// runSynFlood drives the SYN-flood detector end to end: benign sources
// complete handshakes, attackers only SYN, and the control plane scans the
// alarm table between rounds. Prints precision/recall against ground truth.
func runSynFlood(seed int64) error {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return err
	}
	now := func() float64 { return tb.Eng.Now().Seconds() }
	sink := secapps.NewRLSink(testbed.MACFor(200))
	_, sp := tb.Attach(sink, sink.MAC())
	sink.Attach(sp)

	d := secapps.NewSynDetector(16)
	cl := tb.AddClient(31, secapps.SynFloodService(d))
	d.Bind(cl)
	d.SnapshotFn = tb.SnapshotFn()
	if err := cl.RequestAllocation(); err != nil {
		return err
	}
	if err := tb.WaitOperational(cl, 5*time.Second); err != nil {
		return err
	}
	pl := cl.Placement()
	fmt.Printf("[%8.3fs] detector operational: threshold %d, counters %d..%d, mutant %v\n",
		now(), d.Threshold, pl.Accesses[0].Range.Lo, pl.Accesses[0].Range.Hi, pl.Mutant)

	slot := func(src uint32) uint32 { s, _ := d.CounterSlot(src); return s }
	gen := secapps.NewSynFloodGen(seed, 40, 6, slot)
	fmt.Printf("[%8.3fs] population: %d benign sources, %d attackers (disjoint counter slots)\n",
		now(), len(gen.Benign), len(gen.Attackers))
	for round := 0; round < 4; round++ {
		gen.Round(d, sink.MAC())
		tb.RunFor(20 * time.Millisecond)
		fresh, err := d.ScanAlarms()
		if err != nil {
			return err
		}
		fmt.Printf("[%8.3fs] round %d: %d SYNs, %d ACKs sent; scan raised %d new alarms (%d total)\n",
			now(), round, d.SynsSent, d.AcksSent, len(fresh), len(d.Alarmed))
	}
	precision, recall := d.Score(gen.Truth)
	fmt.Printf("[%8.3fs] detection: precision %.3f, recall %.3f (%d alarmed of %d attackers)\n",
		now(), precision, recall, len(d.Alarmed), len(gen.Attackers))
	if precision < 0.95 || recall < 0.95 {
		return fmt.Errorf("detection quality below 0.95: precision=%.3f recall=%.3f", precision, recall)
	}

	// Late-arriving flood through the chaos library's injector: two fresh
	// sources attack mid-run via the detector's own capsule path.
	late := secapps.NewSynFloodGen(seed+99, 0, 2, slot)
	sc := chaos.SynFloodAttack(func(src uint32) { d.Syn(src, nil, sink.MAC()) },
		late.Attackers, 2*int(d.Threshold), 10*time.Millisecond, time.Millisecond, seed)
	if err := sc.Install(tb.System()); err != nil {
		return err
	}
	tb.RunFor(100 * time.Millisecond)
	if _, err := d.ScanAlarms(); err != nil {
		return err
	}
	for _, src := range late.Attackers {
		if !d.Alarmed[src] {
			return fmt.Errorf("late flood source %#x never alarmed", src)
		}
	}
	fmt.Printf("[%8.3fs] chaos syn-flood injector: %d late sources flooded and alarmed\n",
		now(), len(late.Attackers))
	return nil
}

// runRateLimit drives the per-tenant token-bucket rate limiter: three
// tenants offer under / at / triple the window budget over two refill
// windows, and the sink's delivery counts show the enforcement clamp.
func runRateLimit(seed int64) error {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return err
	}
	now := func() float64 { return tb.Eng.Now().Seconds() }
	sink := secapps.NewRLSink(testbed.MACFor(201))
	_, sp := tb.Attach(sink, sink.MAC())
	sink.Attach(sp)

	const limit = 20
	rl := secapps.NewRateLimiter(limit)
	cl := tb.AddClient(32, secapps.RateLimitService(rl))
	rl.Bind(cl)
	rl.SnapshotFn = tb.SnapshotFn()
	if err := cl.RequestAllocation(); err != nil {
		return err
	}
	if err := tb.WaitOperational(cl, 5*time.Second); err != nil {
		return err
	}
	fmt.Printf("[%8.3fs] limiter operational: %d capsules per tenant per window\n", now(), limit)

	// Tenant identifiers double as labels; offered loads bracket the limit.
	// The seed shifts the identifiers so bucket slots vary run to run.
	base := uint32(seed)*0x9E37 + 0xA0
	offered := []struct {
		tenant uint32
		n      int
	}{{base, limit / 2}, {base + 1, limit}, {base + 2, 3 * limit}}
	for w := 0; w < 2; w++ {
		for _, o := range offered {
			rl.Refill(o.tenant, sink.MAC())
		}
		tb.RunFor(5 * time.Millisecond)
		for _, o := range offered {
			for i := 0; i < o.n; i++ {
				rl.Send(o.tenant, nil, sink.MAC())
			}
		}
		tb.RunFor(20 * time.Millisecond)
		fmt.Printf("[%8.3fs] window %d closed (%d refills so far)\n", now(), w, rl.Refills)
	}
	for _, o := range offered {
		got := sink.Delivered[o.tenant]
		want := uint64(2 * o.n)
		if o.n > limit {
			want = 2 * limit
		}
		fmt.Printf("    tenant %#x: offered %d, delivered %d (expected %d)\n",
			o.tenant, 2*o.n, got, want)
		if got != want {
			return fmt.Errorf("tenant %#x: delivered %d, want %d", o.tenant, got, want)
		}
	}
	return nil
}

// runHHRecirc drives the probabilistic-recirculation heavy hitter under an
// armed recirculation limiter: a Zipf stream flows through the one-pass
// sketch, harvested candidates are promoted to the two-pass exact arm, and
// the driver defers claims the budget cannot cover. Prints spend accounting
// and the top keys against ground truth.
func runHHRecirc(seed int64) error {
	// The claim arm is a two-pass program; only the least-constrained policy
	// admits multi-pass placements.
	cfg := testbed.DefaultConfig()
	cfg.Alloc.Policy = alloc.LeastConstrained
	tb, err := testbed.New(cfg)
	if err != nil {
		return err
	}
	now := func() float64 { return tb.Eng.Now().Seconds() }
	sink := secapps.NewRLSink(testbed.MACFor(202))
	_, sp := tb.Attach(sink, sink.MAC())
	sink.Attach(sp)

	const claimFID = 34
	hh := secapps.NewRecircHH(seed, 32, 4)
	sketchCl := tb.AddClient(33, secapps.HXSketchService())
	claimCl := tb.AddClient(claimFID, secapps.HXClaimService())
	hh.Bind(sketchCl, claimCl)
	hh.SnapshotFn = tb.SnapshotFn()
	for _, cl := range []interface{ RequestAllocation() error }{sketchCl, claimCl} {
		if err := cl.RequestAllocation(); err != nil {
			return err
		}
	}
	if err := tb.WaitOperational(sketchCl, 5*time.Second); err != nil {
		return err
	}
	if err := tb.WaitOperational(claimCl, 5*time.Second); err != nil {
		return err
	}
	tb.RT.EnableRecircLimiter(runtime.RecircPolicy{Budget: 8, Window: 50 * time.Millisecond}, tb.Eng.Now)
	hh.BudgetFn = func() int { return tb.Guard.RecircBudgetRemaining(claimFID) }
	fmt.Printf("[%8.3fs] heavy hitter operational: claim arm costs %d extra pass(es), budget 8 per 50ms\n",
		now(), hh.ClaimExtraPasses())

	gen := secapps.NewHXGen(seed+9, 512, 1.4)
	for i := 0; i < 8000; i++ {
		hh.Observe(gen.Next(), nil, sink.MAC())
		tb.RunFor(25 * time.Microsecond)
		if i%250 == 249 {
			if _, err := hh.Harvest(); err != nil {
				return err
			}
		}
		if i%2000 == 1999 {
			fmt.Printf("[%8.3fs] %d observed: %d claimed keys, %d claims (%d deferred), %d recircs spent\n",
				now(), hh.Updates, len(hh.ClaimedKeys()), hh.Claims, hh.ClaimsDeferred, hh.RecircSpent)
		}
	}
	tb.RunFor(10 * time.Millisecond)

	if n := tb.RT.Counters().RecircThrottled.Value(); n != 0 {
		return fmt.Errorf("runtime throttled %d recirculating capsules — driver overran the budget", n)
	}
	if led := tb.Guard.Tenant(claimFID); led != nil && led.Count(guard.KindRecircThrottled) != 0 {
		return fmt.Errorf("guard ledger holds %d recirc-throttled entries", led.Count(guard.KindRecircThrottled))
	}
	fmt.Printf("[%8.3fs] budget respected: 0 throttles, device recirculations = %d = claims\n",
		now(), tb.RT.Device().Counters().Recirculations.Value())

	hot, err := hh.HotKeys()
	if err != nil {
		return err
	}
	truth := gen.TopTruth(5)
	fmt.Printf("[%8.3fs] top exact-counted keys (ground-truth top-5: %x):\n", now(), truth)
	for i, kc := range hot {
		if i == 5 {
			break
		}
		fmt.Printf("    #%d key %#x count ~%d (true %d)\n", i+1, kc.Key, kc.Count, gen.Truth[kc.Key])
	}
	if len(hot) == 0 || hot[0].Key != truth[0] {
		return fmt.Errorf("hottest exact-counted key does not match ground truth")
	}
	return nil
}
