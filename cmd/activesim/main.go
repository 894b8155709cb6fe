// Command activesim runs interactive-scale ActiveRMT scenarios on the
// simulated testbed and prints a timeline: switch, controller, clients, and
// a key-value server, all driven by the virtual clock.
//
// Usage:
//
//	activesim -scenario cache      # one cache client over Zipf traffic
//	activesim -scenario multi      # four staggered cache tenants (Fig 9b)
//	activesim -scenario lb         # Cheetah load balancing across 4 servers
//	activesim -scenario churn      # Poisson arrivals/departures (Fig 8a)
//	activesim -scenario defrag     # tenant churn + telemetry-driven migration
//	activesim -scenario synflood   # SYN-flood detector: half-open counters + alarm scans
//	activesim -scenario ratelimit  # per-tenant token-bucket enforcement
//	activesim -scenario hhrecirc   # heavy hitter paying recirculation under a budget
//
// Every testbed scenario runs under a policy engine selected with -policy:
// "static" re-emits the historical constants (bit-identical behavior),
// "adaptive" closes the loop over telemetry — tightening the guard under
// attack, widening realloc windows under timeouts, and defragmenting SRAM
// by live migration when the fragmentation gauge crosses its trigger. The
// defrag scenario makes the difference visible: under -policy static the
// gauge stays high, under -policy adaptive migration recovers it.
//
// The two engines are compared head to head with -policy-ab, which runs
// the chaos library under both and writes one CSV row per scenario:
//
//	activesim -policy-ab results/policy_ab.csv -seed 11   # the committed CSV
//	activesim -policy-ab out.csv -chaos flaky-link       # one scenario only
//
// The cache scenario accepts -chaos <name> to run under a fault schedule
// from the chaos library (deterministic per -seed):
//
//	activesim -scenario cache -chaos flaky-link        # bursty loss on the client link
//	activesim -scenario cache -chaos flapping-port     # the client port goes down/up
//	activesim -scenario cache -chaos controller-outage # control-plane crash + restart
//	activesim -scenario cache -chaos corrupted-memory  # SRAM bit flips + sweep-and-repair
//
// A multi-switch leaf-spine fabric replaces the single testbed switch with
// -topology (or its shorthand -switches):
//
//	activesim -scenario cache -topology leafspine:3x2 # 3 leaves, 2 spines
//	activesim -scenario cache -switches 4             # leafspine:3x1 (4 switches)
//
// The fabric run drives the coherent replicated cache across all leaves and
// prints a per-switch occupancy summary at exit. The default topology
// ("single") preserves the single-switch behavior exactly.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"activermt/internal/apps"
	"activermt/internal/chaos"
	"activermt/internal/client"
	"activermt/internal/experiments"
	"activermt/internal/fabric"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/policy"
	"activermt/internal/soak"
	"activermt/internal/telemetry"
	"activermt/internal/testbed"
	"activermt/internal/workload"
)

func main() {
	scenario := flag.String("scenario", "cache", "cache | multi | lb | churn | defrag | synflood | ratelimit | hhrecirc")
	seed := flag.Int64("seed", 1, "workload seed")
	policyMode := flag.String("policy", "static", "control policy engine: static | adaptive")
	policyAB := flag.String("policy-ab", "", "run the static-vs-adaptive A/B over the chaos library and write CSV here (restrict with -chaos)")
	chaosName := flag.String("chaos", "", "fault scenario for -scenario cache: "+strings.Join(chaos.Names(), " | "))
	adversary := flag.Bool("adversary", false, "co-schedule an adversarial tenant attacking the cache")
	telAddr := flag.String("telemetry", "", "serve Prometheus/JSON telemetry on this address during -scenario cache (e.g. 127.0.0.1:9464)")
	topology := flag.String("topology", "single", `"single" or "leafspine:<leaves>x<spines>" (-scenario cache only)`)
	switches := flag.Int("switches", 0, "shorthand for -topology leafspine:(N-1)x1; 0 or 1 keeps the single switch")
	soakDur := flag.Duration("soak", 0, "run the long-soak invariant harness for this much virtual time (overrides -scenario)")
	soakCSV := flag.String("soak-csv", "", "with -soak: write per-epoch metrics CSV to this file")
	soakSecapps := flag.Bool("soak-secapps", false, "with -soak: run the three security-app workload families alongside the cache load")
	flag.Parse()

	if *policyMode != "static" && *policyMode != "adaptive" {
		fmt.Fprintf(os.Stderr, "activesim: -policy %q: want static or adaptive\n", *policyMode)
		os.Exit(2)
	}
	if *policyAB != "" {
		if err := runPolicyAB(*policyAB, *chaosName, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "activesim:", err)
			os.Exit(1)
		}
		return
	}

	if *soakDur > 0 {
		if err := runSoak(*seed, *soakDur, *soakCSV, *policyMode, *soakSecapps); err != nil {
			fmt.Fprintln(os.Stderr, "activesim:", err)
			os.Exit(1)
		}
		return
	}
	if *soakCSV != "" || *soakSecapps {
		fmt.Fprintln(os.Stderr, "activesim: -soak-csv and -soak-secapps require -soak")
		os.Exit(2)
	}

	if (*chaosName != "" || *adversary || *telAddr != "") && *scenario != "cache" {
		fmt.Fprintln(os.Stderr, "activesim: -chaos, -adversary, and -telemetry only apply to -scenario cache")
		os.Exit(2)
	}
	leaves, spines, err := parseTopology(*topology, *switches)
	if err != nil {
		fmt.Fprintln(os.Stderr, "activesim:", err)
		os.Exit(2)
	}
	if leaves > 0 && (*scenario != "cache" || *chaosName != "" || *adversary || *telAddr != "" || *policyMode != "static") {
		fmt.Fprintln(os.Stderr, "activesim: a leaf-spine topology only applies to plain -scenario cache")
		os.Exit(2)
	}
	switch *scenario {
	case "cache":
		if leaves > 0 {
			err = runFabricCache(*seed, leaves, spines)
		} else {
			err = runCache(*seed, *chaosName, *adversary, *telAddr, *policyMode)
		}
	case "defrag":
		err = runDefragDemo(*seed, *policyMode)
	case "multi":
		err = writeExperiment(os.Stdout, "fig9b", *seed)
	case "churn":
		err = writeExperiment(os.Stdout, "fig8a", *seed)
	case "lb":
		err = runLB(*seed)
	case "synflood":
		err = runSynFlood(*seed)
	case "ratelimit":
		err = runRateLimit(*seed)
	case "hhrecirc":
		err = runHHRecirc(*seed)
	default:
		fmt.Fprintf(os.Stderr, "activesim: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "activesim:", err)
		os.Exit(1)
	}
}

// runSoak drives the internal/soak harness: a leaf-spine fabric under
// continuous chaos, tenant churn, and a coherent-cache workload, with
// invariants checked every virtual epoch. Exits non-zero on any violation.
func runSoak(seed int64, dur time.Duration, csvPath, policyMode string, secapps bool) error {
	cfg := soak.Config{Duration: dur, Seed: seed, Policy: policyMode, Secapps: secapps, Progress: func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		cfg.CSV = w
	}
	res, err := soak.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("soak: %d epochs over %v virtual: %d reads (%d lost, %.0f%% hit), %d writes acked, %d tenants placed, %d chaos scenarios, %d reconciles, p99=%v\n",
		res.Epochs, res.Elapsed, res.ReadsDone, res.Lost, 100*res.HitRate,
		res.Acked, res.TenantsPlaced, res.ChaosInstalled, res.Reconciles, res.P99)
	k := res.SpineKill
	fmt.Printf("soak: spine-kill arc: fired=%v degraded=%v rerouted=%v reconciled=%v recovered=%v\n",
		k.Fired, k.Degraded, k.Rerouted, k.Reconciled, k.Recovered)
	if policyMode == "adaptive" {
		fmt.Printf("soak: adaptive policy: %d defrag passes, %d migrations, max frag %.3f\n",
			res.DefragPasses, res.DefragMigrations, res.MaxFragmentation)
	}
	if secapps {
		fmt.Printf("soak: secapps: syn %d sent / %d alarms, rl %d delivered of %d offered, hh %d observed / %d claims (%d deferred)\n",
			res.SynSent, res.SynAlarms, res.RLDelivered, res.RLOffered,
			res.HHObserved, res.HHClaims, res.HHDeferred)
	}
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "soak: invariant violation: %v\n", v)
			for _, line := range v.Trace {
				fmt.Fprintf(os.Stderr, "  trace: %s\n", line)
			}
		}
		return fmt.Errorf("%d invariant violation(s)", len(res.Violations))
	}
	return nil
}

// writeExperiment runs experiment id in quick mode and writes its headline
// metrics, in sorted order, and notes to w.
func writeExperiment(w io.Writer, id string, seed int64) error {
	spec, _ := experiments.Lookup(id)
	res, err := spec.Run(experiments.RunConfig{Quick: true, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scenario %s (%s)\n", id, res.Title)
	for _, k := range res.MetricKeys() {
		fmt.Fprintf(w, "  %-32s %g\n", k, res.Metrics[k])
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	return nil
}

// parseTopology resolves -topology/-switches to a leaf/spine count.
// (0, 0) means the single-switch testbed.
func parseTopology(topology string, switches int) (leaves, spines int, err error) {
	if switches < 0 {
		return 0, 0, fmt.Errorf("-switches %d: must be >= 0", switches)
	}
	if switches > 1 {
		if topology != "single" {
			return 0, 0, fmt.Errorf("-switches and -topology are mutually exclusive")
		}
		return switches - 1, 1, nil
	}
	if topology == "single" || topology == "" {
		return 0, 0, nil
	}
	spec, ok := strings.CutPrefix(topology, "leafspine:")
	if !ok {
		return 0, 0, fmt.Errorf("-topology %q: want \"single\" or \"leafspine:<leaves>x<spines>\"", topology)
	}
	l, s, ok := strings.Cut(spec, "x")
	if ok {
		leaves, err = strconv.Atoi(l)
		if err == nil {
			spines, err = strconv.Atoi(s)
		}
	}
	if !ok || err != nil || leaves < 1 || spines < 1 {
		return 0, 0, fmt.Errorf("-topology %q: want leafspine:<leaves>x<spines> with positive counts", topology)
	}
	return leaves, spines, nil
}

// runFabricCache drives the coherent replicated cache across a leaf-spine
// fabric: one replica per reader leaf plus the home spine, a KV server on
// the last leaf, Zipf GETs issued round-robin from every reader leaf, and a
// write burst mid-run to exercise the invalidation protocol. Exits with a
// per-switch occupancy summary.
func runFabricCache(seed int64, leaves, spines int) error {
	f, err := fabric.New(fabric.DefaultConfig(leaves, spines))
	if err != nil {
		return err
	}
	fc := fabric.NewController(f)
	now := func() float64 { return f.Eng.Now().Seconds() }
	fmt.Printf("[%8.3fs] leaf-spine fabric up: %d leaves x %d spines (%d switches)\n",
		now(), leaves, spines, len(f.Nodes()))

	srvLeaf := leaves - 1
	srvMAC, srvIP := f.NewHostID()
	srv := apps.NewKVServer(f.Eng, srvMAC, srvIP)
	sp, err := f.AttachHost(srvLeaf, srv, srvMAC)
	if err != nil {
		return err
	}
	srv.Attach(sp)

	// Readers on every leaf; with a single leaf it doubles as the server's.
	readers := make([]int, leaves)
	for i := range readers {
		readers[i] = i
	}
	cc, err := fabric.NewCoherentCache(fc, 1, readers, srvMAC, srvIP)
	if err != nil {
		return err
	}
	fmt.Printf("[%8.3fs] coherent cache admitted on %d switches (home %s, epoch %d, %d buckets/replica)\n",
		now(), len(cc.Set().Members), cc.Home().Name, cc.Set().Epoch, cc.Capacity())

	const nkeys = 2048
	z := workload.NewZipf(seed, 1.25, nkeys)
	keys := make([][2]uint32, nkeys)
	var hot []apps.KVMsg
	for i := range keys {
		k0, k1, v := uint32(i)*2654435761, uint32(i)*2246822519+7, uint32(0xC0DE+i)
		keys[i] = [2]uint32{k0, k1}
		srv.Store[apps.KeyOf(k0, k1)] = v
		if i < nkeys/2 {
			hot = append(hot, apps.KVMsg{Key0: k0, Key1: k1, Value: v})
		}
	}
	if err := cc.Warm(0, hot); err != nil {
		return err
	}
	f.RunFor(100 * time.Millisecond)
	fmt.Printf("[%8.3fs] warmed %d objects from leaf 0\n", now(), len(hot))

	for window := 0; window < 3; window++ {
		h0, m0 := cc.Hits, cc.Misses
		for i := 0; i < 3000; i++ {
			k := keys[z.Next()]
			if _, err := cc.Get(readers[i%len(readers)], k[0], k[1]); err != nil {
				return err
			}
			f.RunFor(50 * time.Microsecond)
		}
		f.RunFor(5 * time.Millisecond)
		h, m := cc.Hits-h0, cc.Misses-m0
		fmt.Printf("[%8.3fs] window %d: hit rate %.3f (%d hits, %d misses, server saw %d)\n",
			now(), window, float64(h)/float64(h+m), h, m, srv.Requests)
		if window == 0 {
			// Overwrite a slice of the hot set from the last leaf: the
			// invalidation capsules evict the other leaves' copies.
			wleaf := readers[len(readers)-1]
			for i := 0; i < 64; i++ {
				if _, err := cc.Put(wleaf, keys[i][0], keys[i][1], uint32(0xBEEF+i)); err != nil {
					return err
				}
				f.RunFor(100 * time.Microsecond)
			}
			f.RunFor(5 * time.Millisecond)
			fmt.Printf("[%8.3fs] wrote 64 keys from leaf %d: %d invalidations sent, %d delivered, %d acks\n",
				now(), wleaf, cc.InvalSent, cc.InvalDelivered, cc.WriteAcks)
		}
	}

	fmt.Printf("[%8.3fs] per-switch occupancy at exit:\n", now())
	for _, n := range f.Nodes() {
		fmt.Printf("    %-8s %4d blocks (util %.3f)\n",
			n.Name, n.OccupiedBlocks(), n.Ctrl.Allocator().Utilization())
	}
	fmt.Printf("    spills=%d replica-mismatches=%d\n", fc.Spills, fc.ReplicaMismatch)
	return nil
}

func runCache(seed int64, chaosName string, adversary bool, telAddr, policyMode string) error {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return err
	}
	loop := tb.AttachPolicy(policyEngine(policyMode))
	defer loop.Stop()
	fmt.Printf("[%8.3fs] policy engine: %s\n", tb.Eng.Now().Seconds(), policyMode)
	var telSrv *telemetry.Server
	var midPackets uint64
	if telAddr != "" {
		reg := tb.EnableTelemetry()
		if telSrv, err = telemetry.Serve(reg, telAddr); err != nil {
			return err
		}
		defer telSrv.Close()
		fmt.Printf("[%8.3fs] telemetry: serving http://%s/metrics\n", tb.Eng.Now().Seconds(), telSrv.Addr())
	}
	srv := apps.NewKVServer(tb.Eng, testbed.MACFor(200), testbed.IPFor(999))
	_, sp := tb.Attach(srv, srv.MAC())
	srv.Attach(sp)

	_, _, selfIP := tb.NewHostID()
	cache := apps.NewCache(srv.MAC(), selfIP, testbed.IPFor(999))
	cl := tb.AddClient(1, apps.CacheService(cache))
	cache.Bind(cl)

	fmt.Printf("[%8.3fs] requesting allocation\n", tb.Eng.Now().Seconds())
	if err := cl.RequestAllocation(); err != nil {
		return err
	}
	if err := tb.WaitOperational(cl, 10*time.Second); err != nil {
		return err
	}
	pl := cl.Placement()
	fmt.Printf("[%8.3fs] operational: mutant %v, %d buckets\n",
		tb.Eng.Now().Seconds(), pl.Mutant, cache.Capacity())

	// Seed server + hot set, then drive Zipf traffic.
	z := workload.NewZipf(seed, 1.25, 4096)
	keys := make([][2]uint32, 4096)
	var hot []apps.KVMsg
	for i := range keys {
		k0, k1, v := uint32(i)*2654435761, uint32(i)*2246822519+7, uint32(0xC0DE+i)
		keys[i] = [2]uint32{k0, k1}
		srv.Store[apps.KeyOf(k0, k1)] = v
		if i < 2048 {
			hot = append(hot, apps.KVMsg{Key0: k0, Key1: k1, Value: v})
		}
	}
	cache.SetHotObjects(hot)
	cache.Populate()
	tb.RunFor(50 * time.Millisecond)
	fmt.Printf("[%8.3fs] populated %d objects\n", tb.Eng.Now().Seconds(), cache.PopAcks)

	var sc *chaos.Scenario
	if chaosName != "" {
		// Fault tolerance knobs the scenarios lean on: retry with backoff,
		// escape a stuck reallocation window.
		cl.RetryAfter = 50 * time.Millisecond
		cl.ReallocTimeout = 250 * time.Millisecond
		if chaosName == "corrupted-memory" {
			// Target the stage the cache actually lives in, so the bit
			// flips land on live application state.
			stage := pl.Accesses[0].Logical % 20
			sc = chaos.CorruptedMemory(stage, 24, 100*time.Millisecond, 300*time.Millisecond, seed)
		} else if sc, err = chaos.Build(chaosName, []*netsim.Port{cl.Port()}, seed); err != nil {
			return err
		}
		if err := sc.Install(tb.System()); err != nil {
			return err
		}
		fmt.Printf("[%8.3fs] chaos scenario %q armed (seed %d)\n", tb.Eng.Now().Seconds(), sc.Name, seed)
	}

	// The adversary co-schedules a second tenant that completes a normal
	// admission, then turns on the victim: the attack arc launches between
	// measurement windows 1 and 2, so the printed delta compares clean
	// windows against under-attack windows at the same seed.
	const attackerFID = 66
	var attCl *client.Client
	var advSc *chaos.Scenario
	if adversary {
		_, _, attIP := tb.NewHostID()
		attCache := apps.NewCache(srv.MAC(), attIP, testbed.IPFor(999))
		attCl = tb.AddClient(attackerFID, apps.CacheService(attCache))
		attCache.Bind(attCl)
		if err := attCl.RequestAllocation(); err != nil {
			return err
		}
		if err := tb.WaitOperational(attCl, 10*time.Second); err != nil {
			return err
		}
		fmt.Printf("[%8.3fs] attacker tenant fid %d admitted (epoch %d)\n",
			tb.Eng.Now().Seconds(), attackerFID, attCl.Epoch())
	}

	rates := make([]float64, 0, 5)
	for window := 0; window < 5; window++ {
		if adversary && window == 2 {
			_, advMAC, _ := tb.NewHostID()
			adv := chaos.NewAdversary(tb.Eng, advMAC, tb.Switch.MAC())
			_, ap := tb.Attach(adv, advMAC)
			adv.Attach(ap)
			adv.Arm(attackerFID, attCl.Epoch())
			advSc = chaos.AdversarialTenant(adv, 1, seed)
			if err := advSc.Install(tb.System()); err != nil {
				return err
			}
			fmt.Printf("[%8.3fs] adversary armed with fid %d credentials; attack scenario installed\n",
				tb.Eng.Now().Seconds(), attackerFID)
		}
		cache.ResetStats()
		for i := 0; i < 5000; i++ {
			k := keys[z.Next()]
			cache.Get(k[0], k[1])
			tb.RunFor(50 * time.Microsecond)
		}
		tb.RunFor(5 * time.Millisecond)
		rates = append(rates, cache.HitRate())
		fmt.Printf("[%8.3fs] window %d: hit rate %.3f (%d hits, %d misses, server saw %d)\n",
			tb.Eng.Now().Seconds(), window, cache.HitRate(), cache.Hits, cache.Misses, srv.Requests)
		if telSrv != nil && window == 2 {
			families, packets, err := scrapeMetrics(telSrv.Addr())
			if err != nil {
				return fmt.Errorf("mid-run telemetry scrape: %w", err)
			}
			midPackets = packets
			fmt.Printf("[%8.3fs] telemetry: mid-run scrape ok (%d families, packets=%d)\n",
				tb.Eng.Now().Seconds(), families, packets)
		}
	}
	if advSc != nil {
		tb.RunFor(2 * time.Second) // eviction + reallocation settle
		clean := (rates[0] + rates[1]) / 2
		attacked := (rates[2] + rates[3] + rates[4]) / 3
		fmt.Printf("[%8.3fs] adversary outcome:\n", tb.Eng.Now().Seconds())
		fmt.Printf("    victim hit rate: clean %.3f, under attack %.3f, delta %+.3f\n",
			clean, attacked, attacked-clean)
		fmt.Printf("    guard: checked=%d dropped=%d tenant-violations=%d port-violations=%d\n",
			tb.Guard.Checked(), tb.Guard.DroppedAtIngress(), tb.Guard.TenantViolations(), tb.Guard.PortViolations())
		fmt.Printf("    controller: quarantines=%d evictions=%d\n",
			tb.Ctrl.GuardQuarantines, tb.Ctrl.GuardEvictions)
		if led := tb.Guard.Tenant(attackerFID); led != nil {
			fmt.Printf("    attacker ledger (fid %d, state %v, %d violations):\n",
				attackerFID, led.State(), led.Total())
			for _, tr := range led.History {
				fmt.Printf("      %s\n", tr)
			}
		}
		fmt.Printf("    attacker client: state=%v evictions=%d\n", attCl.State(), attCl.Evictions)
		fmt.Printf("    victim client: state=%v (ledger clean: %v)\n",
			cl.State(), tb.Guard.Tenant(1) == nil || tb.Guard.Tenant(1).Total() == 0)
		fmt.Printf("    chaos trace:\n")
		for _, e := range advSc.Trace() {
			fmt.Printf("      %s\n", e)
		}
	}
	if sc != nil {
		tb.RunFor(2 * time.Second) // let the fault schedule and recovery settle
		fmt.Printf("[%8.3fs] chaos trace:\n", tb.Eng.Now().Seconds())
		for _, e := range sc.Trace() {
			fmt.Printf("    %s\n", e)
		}
		fmt.Printf("    client: state=%v retries=%d reallocations=%d realloc-timeouts=%d\n",
			cl.State(), cl.Retries, cl.Reallocations, cl.ReallocTimeouts)
		fmt.Printf("    controller: crashes=%d restarts=%d readmissions=%d digests-dropped=%d quarantined-blocks=%d\n",
			tb.Ctrl.Crashes, tb.Ctrl.Restarts, tb.Ctrl.Readmissions,
			tb.Ctrl.DigestsDropped, tb.Ctrl.Allocator().QuarantinedBlocks())
	}
	if telSrv != nil {
		families, packets, err := scrapeMetrics(telSrv.Addr())
		if err != nil {
			return fmt.Errorf("final telemetry scrape: %w", err)
		}
		if packets < midPackets {
			return fmt.Errorf("telemetry: packet counter not monotone: mid=%d final=%d", midPackets, packets)
		}
		fmt.Printf("[%8.3fs] telemetry: final scrape ok (%d families, packets mid=%d final=%d, monotone)\n",
			tb.Eng.Now().Seconds(), families, midPackets, packets)
	}
	fmt.Printf("[%8.3fs] policy loop: %d evals, %d decision changes, %d defrag passes (%d migrations)\n",
		tb.Eng.Now().Seconds(), loop.Evals, loop.Changes, tb.Ctrl.DefragPasses, tb.Ctrl.DefragMigrations)
	return nil
}

// policyEngine resolves the -policy flag; values are validated in main.
func policyEngine(mode string) policy.Engine {
	if mode == "adaptive" {
		// The single-switch fragmentation gauge is diluted by the many
		// stages the workload tenants never occupy, so the interactive
		// scenarios use the same low trigger band as the A/B harness.
		return &policy.Adaptive{DefragTrigger: 0.02, DefragTarget: 0.005}
	}
	return policy.Static{}
}

// runPolicyAB runs the head-to-head comparison and writes the CSV. An
// empty chaosName means the whole library.
func runPolicyAB(csvPath, chaosName string, seed int64) error {
	var scenarios []string
	if chaosName != "" {
		scenarios = []string{chaosName}
	}
	fmt.Printf("policy A/B: %d scenario(s) x {static, adaptive}, seed %d\n",
		maxAB(len(scenarios), len(chaos.Names())), seed)
	rows, err := experiments.RunPolicyAB(scenarios, seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  %-18s static frag %.4f (0 migrations) | adaptive frag %.4f (%d migrations, %d blocks) -> %s\n",
			r.Scenario, r.Static.FinalFrag, r.Adaptive.FinalFrag,
			r.Adaptive.DefragMigrations, r.Adaptive.BlocksMoved, r.Winner())
	}
	if err := os.WriteFile(csvPath, []byte(experiments.PolicyABCSV(rows)), 0o644); err != nil {
		return err
	}
	fmt.Printf("policy A/B: wrote %s (%d rows)\n", csvPath, len(rows))
	return nil
}

func maxAB(n, all int) int {
	if n == 0 {
		return all
	}
	return n
}

// runDefragDemo makes the closed loop visible: a churn pattern leaves the
// switch fragmented, and the policy engine either ignores it (static) or
// live-migrates the survivors down into the holes (adaptive) while the
// tenants keep serving. State survival is checked by writing a pattern
// into every surviving tenant before the migration and reading it back
// after.
func runDefragDemo(seed int64, policyMode string) error {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return err
	}
	loop := tb.AttachPolicy(policyEngine(policyMode))
	defer loop.Stop()
	now := func() float64 { return tb.Eng.Now().Seconds() }
	fmt.Printf("[%8.3fs] policy engine: %s\n", now(), policyMode)

	// Four waves of inelastic memsync tenants, then waves 1 and 3 released:
	// the survivors sit above the released waves' holes.
	const waves, perWave, demand, words = 4, 6, 48, 8
	type tenant struct {
		cl *client.Client
		ms *apps.MemSync
	}
	var all []tenant
	fid := uint16(100)
	for w := 0; w < waves; w++ {
		for i := 0; i < perWave; i++ {
			ms := apps.NewMemSync()
			cl := tb.AddClient(fid, apps.MemSyncService(demand))
			ms.Bind(cl)
			if err := cl.RequestAllocation(); err != nil {
				return err
			}
			if err := tb.WaitOperational(cl, 10*time.Second); err != nil {
				return fmt.Errorf("fid %d: %w", fid, err)
			}
			all = append(all, tenant{cl, ms})
			fid++
		}
	}
	fmt.Printf("[%8.3fs] admitted %d memsync tenants (%d blocks each), utilization %.3f\n",
		now(), len(all), demand, tb.Ctrl.Allocator().Utilization())

	// Survivors get a recognizable pattern in switch SRAM before churn.
	var survivors []tenant
	for w := 0; w < waves; w++ {
		for i := 0; i < perWave; i++ {
			t := all[w*perWave+i]
			if w%2 == 0 {
				continue
			}
			for j := 0; j < words; j++ {
				t.ms.Write(uint32(j), uint32(t.cl.FID())<<16|uint32(j), nil)
				tb.RunFor(100 * time.Microsecond)
			}
			survivors = append(survivors, t)
		}
	}
	tb.RunFor(100 * time.Millisecond)
	for w := 0; w < waves; w += 2 {
		for i := 0; i < perWave; i++ {
			if err := all[w*perWave+i].cl.Release(); err != nil {
				return err
			}
		}
	}
	tb.RunFor(200 * time.Millisecond)
	fragBefore := tb.Ctrl.Allocator().Fragmentation()
	fmt.Printf("[%8.3fs] released %d tenants: fragmentation %.4f, utilization %.3f\n",
		now(), waves/2*perWave, fragBefore, tb.Ctrl.Allocator().Utilization())

	// The policy loop runs every 100ms; give it a few seconds. Under
	// adaptive it observes the gauge over the trigger and queues migration
	// passes; under static nothing happens, by design.
	tb.RunFor(5 * time.Second)
	fragAfter := tb.Ctrl.Allocator().Fragmentation()
	fmt.Printf("[%8.3fs] after policy window: fragmentation %.4f -> %.4f, %d defrag passes, %d tenants migrated, %d blocks moved, %d words restored\n",
		now(), fragBefore, fragAfter, tb.Ctrl.DefragPasses, tb.Ctrl.DefragMigrations,
		tb.Ctrl.DefragBlocksMoved, tb.Ctrl.DefragWordsRestored)

	// Books and state must survive whichever path ran.
	bad := 0
	for _, t := range survivors {
		for j := 0; j < words; j++ {
			want := uint32(t.cl.FID())<<16 | uint32(j)
			got, err := readBack(tb, t.ms, j)
			if err != nil || got != want {
				bad++
			}
		}
	}
	if err := tb.Ctrl.Allocator().AuditBooks(); err != nil {
		return fmt.Errorf("allocator books: %w", err)
	}
	fmt.Printf("[%8.3fs] audit: books clean, %d/%d survivor words verified (%d bad)\n",
		now(), len(survivors)*words-bad, len(survivors)*words, bad)
	if bad > 0 {
		return fmt.Errorf("%d survivor words lost across migration", bad)
	}
	if policyMode == "adaptive" && tb.Ctrl.DefragMigrations == 0 && fragBefore > 0.02 {
		return fmt.Errorf("adaptive policy never migrated despite fragmentation %.4f", fragBefore)
	}
	return nil
}

// readBack issues a data-plane read through the tenant's capsule program
// and spins the engine until the reply lands.
func readBack(tb *testbed.Testbed, ms *apps.MemSync, index int) (uint32, error) {
	var got uint32
	done := false
	ms.Read(uint32(index), func(v uint32) {
		got, done = v, true
	})
	limit := tb.Eng.Now() + time.Second
	for !done && tb.Eng.Now() < limit {
		tb.RunFor(time.Millisecond)
	}
	if !done {
		return 0, fmt.Errorf("read of index %d timed out", index)
	}
	return got, nil
}

// scrapeRequired are the metric families the ISSUE's acceptance criteria
// demand from a live scrape; the smoke path fails if any is missing.
var scrapeRequired = []string{
	"activermt_stage_occupancy_words",  // per-stage register occupancy
	"activermt_alloc_tenant_blocks",    // per-tenant block counts
	"activermt_guard_violations_total", // guard violation totals
	"activermt_packet_latency_ns",      // packet latency histogram
	"activermt_progcache_hit_ratio",    // program-cache hit ratio
	"activermt_device_packets_total",   // monotone packet counter
}

// scrapeMetrics fetches the Prometheus exposition from a running telemetry
// server, checks it is well-formed (every sample line parses, every required
// family is present), and returns the family count and the device packet
// counter value.
func scrapeMetrics(addr string) (families int, packets uint64, err error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("scrape status %s", resp.Status)
	}
	seen := map[string]bool{}
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 4<<20))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			families++
			f := strings.Fields(line)
			if len(f) >= 3 {
				seen[f[2]] = true
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			return 0, 0, fmt.Errorf("malformed exposition line %q", line)
		}
		v, perr := strconv.ParseFloat(line[idx+1:], 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("malformed sample value in %q", line)
		}
		if line[:idx] == "activermt_device_packets_total" {
			packets = uint64(v)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	for _, want := range scrapeRequired {
		if !seen[want] {
			return 0, 0, fmt.Errorf("scrape missing required family %s", want)
		}
	}
	return families, packets, nil
}

func runLB(seed int64) error {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return err
	}
	const nsrv = 4
	servers := make([]*apps.EchoServer, nsrv)
	ports := make([]uint32, nsrv)
	for i := range servers {
		servers[i] = apps.NewEchoServer(tb.Eng, testbed.MACFor(201+i))
		p, ep := tb.Attach(servers[i], servers[i].MAC())
		servers[i].Attach(ep)
		ports[i] = uint32(p)
	}

	lb := apps.NewCheetah(uint32(seed)*0x9E37+1, nsrv)
	lb.Select = tb.AddClient(21, apps.CheetahSelectService())
	lb.Route = tb.AddClient(22, apps.CheetahRouteService())

	cookieCh := map[uint64]uint32{}
	lb.Select.Handler = func(c *client.Client, f *packet.Frame) {
		if f.Active == nil || f.Active.Args[1] == 0 {
			return
		}
		if tup, ok := packet.ParseFiveTuple(f.Inner); ok {
			cookieCh[uint64(tup.SrcPort)] = f.Active.Args[1]
		}
	}
	for _, cl := range []*client.Client{lb.Select, lb.Route} {
		if err := cl.RequestAllocation(); err != nil {
			return err
		}
		if err := tb.WaitOperational(cl, 10*time.Second); err != nil {
			return err
		}
	}
	lb.SetupPool(ports)
	tb.RunFor(20 * time.Millisecond)
	fmt.Printf("[%8.3fs] pool installed: ports %v\n", tb.Eng.Now().Seconds(), ports)

	// 32 flows: SYN then 8 data packets each.
	for flow := 0; flow < 32; flow++ {
		tup := packet.FiveTuple{
			Src: testbed.IPFor(50), Dst: testbed.IPFor(60),
			SrcPort: uint16(1000 + flow), DstPort: 80, Protocol: packet.ProtoTCP,
		}
		payload := apps.BuildUDP(tup.Src, tup.Dst, tup.SrcPort, tup.DstPort, []byte("syn"))
		lb.ActivateSYN(payload, testbed.MACFor(250))
		tb.RunFor(2 * time.Millisecond)
		if ck, ok := cookieCh[uint64(tup.SrcPort)]; ok {
			lb.LearnCookie(tup, ck)
		}
		for i := 0; i < 8; i++ {
			lb.ActivateData(tup, payload, testbed.MACFor(250))
			tb.RunFor(500 * time.Microsecond)
		}
	}
	tb.RunFor(10 * time.Millisecond)
	fmt.Printf("[%8.3fs] flows routed: %d SYNs, %d data packets\n",
		tb.Eng.Now().Seconds(), lb.SYNsSent, lb.Routed)
	for i, s := range servers {
		fmt.Printf("  server %d (port %d): %d packets\n", i, ports[i], s.Echoed)
	}
	return nil
}
