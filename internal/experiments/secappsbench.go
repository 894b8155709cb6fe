package experiments

import (
	"fmt"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/guard"
	"activermt/internal/runtime"
	"activermt/internal/secapps"
	"activermt/internal/testbed"
)

// SecappsStat is the security-app series in BENCH_pipeline.json. Like the
// defrag series it runs entirely on the virtual clock, so every number is
// machine-independent and deterministic per build: the gate can require
// exact quality (detection stays perfect, enforcement stays exact, the
// recirculation budget is never overrun) rather than a noise band.
type SecappsStat struct {
	SynPrecision float64 `json:"syn_precision"`
	SynRecall    float64 `json:"syn_recall"`
	RLOffered    uint64  `json:"rl_offered"`
	RLDelivered  uint64  `json:"rl_delivered"`
	HHClaims     uint64  `json:"hh_claims"`
	HHDeferred   uint64  `json:"hh_deferred"`
	HHThrottled  uint64  `json:"hh_throttled"`
}

// RunSecappsBench runs the three security-app exemplars on single-switch
// testbeds and reports their quality numbers: SYN-flood precision/recall
// against seeded ground truth, rate-limit offered vs delivered counts, and
// the heavy hitter's claim/deferral/throttle accounting under a binding
// recirculation budget.
func RunSecappsBench(seed int64) (SecappsStat, error) {
	var st SecappsStat

	// SYN flood: 20 benign sources handshaking, 4 attackers flooding, on
	// disjoint counter slots so the oracle is exact.
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return st, err
	}
	sink := secapps.NewRLSink(testbed.MACFor(210))
	_, sp := tb.Attach(sink, sink.MAC())
	sink.Attach(sp)
	det := secapps.NewSynDetector(16)
	detCl := tb.AddClient(31, secapps.SynFloodService(det))
	det.Bind(detCl)
	det.SnapshotFn = tb.SnapshotFn()
	if err := detCl.RequestAllocation(); err != nil {
		return st, err
	}
	if err := tb.WaitOperational(detCl, 5*time.Second); err != nil {
		return st, err
	}
	slot := func(src uint32) uint32 { s, _ := det.CounterSlot(src); return s }
	sfGen := secapps.NewSynFloodGen(seed, 20, 4, slot)
	for round := 0; round < 3; round++ {
		sfGen.Round(det, sink.MAC())
		tb.RunFor(20 * time.Millisecond)
		if _, err := det.ScanAlarms(); err != nil {
			return st, err
		}
	}
	st.SynPrecision, st.SynRecall = det.Score(sfGen.Truth)

	// Rate limiting: three tenants at half / 1x / 3x the window budget over
	// two windows on a fresh testbed.
	tb, err = testbed.New(testbed.DefaultConfig())
	if err != nil {
		return st, err
	}
	sink = secapps.NewRLSink(testbed.MACFor(211))
	_, sp = tb.Attach(sink, sink.MAC())
	sink.Attach(sp)
	const limit = 16
	rl := secapps.NewRateLimiter(limit)
	rlCl := tb.AddClient(32, secapps.RateLimitService(rl))
	rl.Bind(rlCl)
	if err := rlCl.RequestAllocation(); err != nil {
		return st, err
	}
	if err := tb.WaitOperational(rlCl, 5*time.Second); err != nil {
		return st, err
	}
	tenants := []uint32{0xA1, 0xB2, 0xC3}
	offers := []int{limit / 2, limit, 3 * limit}
	for w := 0; w < 2; w++ {
		for _, t := range tenants {
			rl.Refill(t, sink.MAC())
		}
		tb.RunFor(5 * time.Millisecond)
		for i, t := range tenants {
			for j := 0; j < offers[i]; j++ {
				rl.Send(t, nil, sink.MAC())
			}
		}
		tb.RunFor(20 * time.Millisecond)
	}
	for _, t := range tenants {
		st.RLOffered += rl.Offered[t]
		st.RLDelivered += sink.Delivered[t]
	}

	// Heavy hitter: a Zipf stream under a binding recirculation budget; the
	// claim arm is a two-pass program, so this testbed runs the allocator
	// under the least-constrained policy.
	cfg := testbed.DefaultConfig()
	cfg.Alloc.Policy = alloc.LeastConstrained
	tb, err = testbed.New(cfg)
	if err != nil {
		return st, err
	}
	sink = secapps.NewRLSink(testbed.MACFor(212))
	_, sp = tb.Attach(sink, sink.MAC())
	sink.Attach(sp)
	const claimFID = 34
	hh := secapps.NewRecircHH(seed, 24, 2)
	sketchCl := tb.AddClient(33, secapps.HXSketchService())
	claimCl := tb.AddClient(claimFID, secapps.HXClaimService())
	hh.Bind(sketchCl, claimCl)
	hh.SnapshotFn = tb.SnapshotFn()
	if err := sketchCl.RequestAllocation(); err != nil {
		return st, err
	}
	if err := tb.WaitOperational(sketchCl, 5*time.Second); err != nil {
		return st, err
	}
	if err := claimCl.RequestAllocation(); err != nil {
		return st, err
	}
	if err := tb.WaitOperational(claimCl, 5*time.Second); err != nil {
		return st, err
	}
	tb.RT.EnableRecircLimiter(runtime.RecircPolicy{Budget: 8, Window: 50 * time.Millisecond}, tb.Eng.Now)
	hh.BudgetFn = func() int { return tb.Guard.RecircBudgetRemaining(claimFID) }
	hxGen := secapps.NewHXGen(seed+9, 256, 1.4)
	for i := 0; i < 4000; i++ {
		hh.Observe(hxGen.Next(), nil, sink.MAC())
		tb.RunFor(25 * time.Microsecond)
		if i%250 == 249 {
			if _, err := hh.Harvest(); err != nil {
				return st, err
			}
		}
	}
	tb.RunFor(10 * time.Millisecond)
	st.HHClaims = hh.Claims
	st.HHDeferred = hh.ClaimsDeferred
	st.HHThrottled = tb.RT.Counters().RecircThrottled.Value()
	if led := tb.Guard.Tenant(claimFID); led != nil {
		st.HHThrottled += led.Count(guard.KindRecircThrottled)
	}
	if st.HHClaims == 0 {
		return st, fmt.Errorf("secapps bench: heavy hitter issued no claims")
	}
	return st, nil
}
