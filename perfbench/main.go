// Command perfbench is the repository benchmark. It runs one seeded
// workload end to end through the program's public entry points, checks
// every output, and prints each metric by name with its unit; the last line
// of standard output is a JSON summary.
//
//	bash perfbench/run.sh --workload fabric-get-hit --seed 1 --seconds 45 --trace 0
//
// With --trace 0 it repeats set-up plus the whole schedule until --seconds
// have passed and reports the end-to-end metrics (host-time ones as the
// median over repetitions). With --trace 1 it makes traced runs and a replay
// run as well and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"
)

// workloadSpec is one named workload.
type workloadSpec struct {
	name  string
	why   string
	build func(seed int64, rp *replayer) (system, error)
}

// scale shrinks every schedule (tests use a small one).
func workloads(scale float64) []workloadSpec {
	n := func(x int) int {
		if v := int(float64(x) * scale); v > 0 {
			return v
		}
		return 1
	}
	hit := fabricParams{ops: n(200_000), rate: 1e6, keysPerBucket: 1.0 / 16, zipf: true, ownBuckets: true}
	miss := fabricParams{ops: n(100_000), rate: 5e5, keysPerBucket: 4, putShare: 0.1}
	return []workloadSpec{
		{"fabric-get-hit", "Zipf GETs over a key set that fits the coherent cache, no writes: one execution at the ingress leaf per GET",
			func(seed int64, rp *replayer) (system, error) { return newFabric(hit, seed, rp) }},
		{"fabric-miss-rw", "uniform keys over 4x the cache's buckets plus 10% PUTs: relays through spine and server, two-phase writes",
			func(seed int64, rp *replayer) (system, error) { return newFabric(miss, seed, rp) }},
		{"switch-churn", "tenants arrive and depart on one switch whose memory elastic caches keep full: admissions reallocate neighbours",
			func(seed int64, rp *replayer) (system, error) { return newChurn(n(1600), seed, rp) }},
	}
}

// rep is one untraced repetition: a fresh set-up and one whole schedule.
type rep struct {
	setup       time.Duration // CPU time
	setupWall   time.Duration
	cpu         time.Duration // CPU time of the schedule
	wall        time.Duration
	allocs      uint64
	bytes       uint64
	peakHeap    uint64
	out         *outcome
	fingerprint string
}

func (r rep) opsPerS() float64       { return float64(r.out.ops) / r.cpu.Seconds() }
func (r rep) opsPerWallS() float64   { return float64(r.out.ops) / r.wall.Seconds() }
func (r rep) wallNsPerOp() float64   { return float64(r.wall.Nanoseconds()) / float64(r.out.ops) }
func (r rep) perOp(v uint64) float64 { return float64(v) / float64(r.out.ops) }

func runRep(w workloadSpec, seed int64) (rep, error) {
	base := liveHeap()
	start, c0 := time.Now(), cpuTime()
	sys, err := w.build(seed, nil)
	if err != nil {
		return rep{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	r := rep{setup: cpuTime() - c0, setupWall: time.Since(start)}
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	start, c0 = time.Now(), cpuTime()
	r.out = sys.run(nil)
	r.wall, r.cpu = time.Since(start), cpuTime()-c0
	goruntime.ReadMemStats(&m1)
	r.allocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	// The system's state only grows over a schedule, so the heap a full
	// collection finds live at the end is the run's peak live heap.
	r.peakHeap = liveHeap() - base
	goruntime.KeepAlive(sys)
	r.fingerprint = r.out.fingerprint()
	return r, nil
}

// liveHeap is the heap a full collection finds reachable. Two collections:
// the first only moves sync.Pool contents aside.
func liveHeap() uint64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// report collects printed metric lines and the JSON metrics.
type report struct {
	lines   []string
	metrics map[string]jsonMetric
	correct bool
	errs    []string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rp *report) printf(format string, args ...any) {
	rp.lines = append(rp.lines, fmt.Sprintf(format, args...))
}

// metric prints one metric; json puts it in the summary line too.
func (rp *report) metric(name string, v float64, unit, note string, json bool) {
	rp.printf("metric %-30s %14.6g %-6s %s", name, v, unit, note)
	if json {
		rp.metrics[name] = jsonMetric{Value: v, Unit: unit}
	}
}

func (rp *report) fail(format string, args ...any) {
	rp.correct = false
	if len(rp.errs) < 20 {
		rp.errs = append(rp.errs, fmt.Sprintf(format, args...))
	}
}

// checkOutcome applies the correctness gate to one schedule's outcome.
func (rp *report) checkOutcome(label string, o *outcome) {
	if o.failed() > 0 {
		rp.fail("%s: %d of %d ops failed (%d unanswered, %d wrong or failed audits)", label, o.failed(), o.attempted(), o.unanswered, o.wrong)
		for _, n := range o.notes {
			rp.fail("%s: %s", label, n)
		}
	}
	if o.lateness != 0 {
		rp.fail("%s: generator ran %v late; the open loop must issue every op at its due time", label, o.lateness)
	}
}

func medianOf(reps []rep, f func(rep) float64) (med, spr float64) {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(append([]float64(nil), xs...)), spread(xs)
}

func main() {
	name := flag.String("workload", "", "workload to run: fabric-get-hit, fabric-miss-rw or switch-churn")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()

	var w *workloadSpec
	all := workloads(1)
	for i := range all {
		if all[i].name == *name {
			w = &all[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	rp := &report{metrics: map[string]jsonMetric{}, correct: true}
	var attempted, failed int
	var err error
	if *trace == 1 {
		attempted, failed, err = tracedRun(*w, *seed, budget, rp, ".bench_build/spans")
	} else {
		attempted, failed, err = measuredRun(*w, *seed, budget, rp)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("run workload=%s seed=%d seconds=%g trace=%d numcpu=%d gomaxprocs=%d go=%s\n",
		w.name, *seed, *seconds, *trace, goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version())
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	for _, l := range rp.lines {
		fmt.Println(l)
	}
	for _, e := range rp.errs {
		fmt.Println("FAIL", e)
	}
	summary := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rp.correct, attempted, failed, rp.metrics}
	b, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !rp.correct {
		os.Exit(1)
	}
}

// minReps is the fewest repetitions a measured run makes, whatever its
// time budget. The first repetition pays one-time costs (heap growth, code
// and data caches) and is left out of the host-time medians.
const minReps = 4

// setupReps is how many extra set-ups a measured run times before its
// repetitions, so the set-up median rests on enough samples.
const setupReps = 6

// hostReps drops the warm-up repetition from host-time statistics.
func hostReps(reps []rep) []rep {
	if len(reps) > 2 {
		return reps[1:]
	}
	return reps
}

// repeat runs repetitions until the budget is spent (at least min), and
// checks that every repetition produced the same virtual-time results.
func repeat(w workloadSpec, seed int64, budget time.Duration, min int, rp *report) ([]rep, error) {
	var reps []rep
	start := time.Now()
	for len(reps) < min || time.Since(start) < budget {
		r, err := runRep(w, seed)
		if err != nil {
			return nil, err
		}
		rp.checkRep(fmt.Sprintf("repetition %d", len(reps)+1), r.out, reps)
		reps = append(reps, r)
	}
	return reps, nil
}

// checkRep applies the correctness gate to a repetition's outcome and
// checks it repeats the first repetition's virtual-time results exactly.
func (rp *report) checkRep(label string, o *outcome, earlier []rep) {
	rp.checkOutcome(label, o)
	if len(earlier) > 0 {
		if fp := o.fingerprint(); fp != earlier[0].fingerprint {
			rp.fail("%s differs from repetition 1 in virtual time:\n  %s\n  %s", label, fp, earlier[0].fingerprint)
		}
	}
}

// measuredRun reports the end-to-end metrics.
func measuredRun(w workloadSpec, seed int64, budget time.Duration, rp *report) (int, int, error) {
	start := time.Now()
	var setups, setupWalls []float64
	for i := 0; i < setupReps; i++ {
		goruntime.GC()
		t0, c0 := time.Now(), cpuTime()
		if _, err := w.build(seed, nil); err != nil {
			return 0, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
	}
	all, err := repeat(w, seed, budget-time.Since(start), minReps, rp)
	if err != nil {
		return 0, 0, err
	}
	o := all[0].out
	for _, r := range all {
		setups = append(setups, r.setup.Seconds())
		setupWalls = append(setupWalls, r.setupWall.Seconds())
	}
	reps := hostReps(all)
	n := len(reps)
	opName := "GETs+PUTs"
	if o.background {
		opName = "tenant arrivals+departures"
	}
	rp.printf("schedule: %d ops (%s) per repetition, %d repetitions (host-time medians over the last %d); open loop, virtual clock; generator lateness %v (asserted 0)",
		o.ops, opName, len(all), n, o.lateness)

	rp.metric("setup_s", median(append([]float64(nil), setups...)), "s",
		fmt.Sprintf("host CPU; median of %d set-ups, spread %.1f%% (wall-clock median %.4f s)", len(setups), 100*spread(setups), median(setupWalls)), true)
	ops, opsSpr := medianOf(reps, rep.opsPerS)
	wallOps, wallSpr := medianOf(reps, rep.opsPerWallS)
	rp.metric("ops_per_s", ops, "ops/s", fmt.Sprintf("host CPU; %s per CPU second, median of %d, spread %.1f%% (wall-clock %.0f ops/s, spread %.1f%%)",
		opName, n, 100*opsSpr, wallOps, 100*wallSpr), true)
	rp.metric("get_vlat_p50_us", o.getLat.quantileUS(0.5), "us", fmt.Sprintf("virtual; %d GETs", len(o.getLat)), false)
	rp.metric("get_vlat_p99_us", o.getLat.quantileUS(0.99), "us", fmt.Sprintf("virtual; %d GETs, %d beyond p99", len(o.getLat), len(o.getLat)/100), false)
	if o.puts > 0 {
		rp.metric("put_vlat_p99_us", o.putLat.quantileUS(0.99), "us", fmt.Sprintf("virtual; %d PUTs, %d beyond p99", len(o.putLat), len(o.putLat)/100), false)
	}
	rp.metric("hit_rate", ratio(o.getHits, o.getAnswered), "ratio", fmt.Sprintf("virtual; %d hits of %d answered GETs", o.getHits, o.getAnswered), true)
	if o.background {
		rp.printf("get retransmissions: %d of %d GETs were sent again after %v without an answer (capsules in flight when their tenant was deactivated for reallocation are dropped)",
			o.getRetries, o.gets, getRetry)
	}
	rp.metric("op_fail_ratio", ratio(o.failed(), o.attempted()), "ratio", fmt.Sprintf("%d failed of %d attempted (also the summary's failed/attempted)", o.failed(), o.attempted()), false)
	allocs, allocSpr := medianOf(reps, func(r rep) float64 { return r.perOp(r.allocs) })
	rp.metric("allocs_per_op", allocs, "count", fmt.Sprintf("host; median of %d, spread %.1f%%", n, 100*allocSpr), true)
	bytes, bytesSpr := medianOf(reps, func(r rep) float64 { return r.perOp(r.bytes) })
	rp.metric("bytes_per_op", bytes, "B", fmt.Sprintf("host; median of %d, spread %.1f%%", n, 100*bytesSpr), true)
	heap, heapSpr := medianOf(reps, func(r rep) float64 { return float64(r.peakHeap) / (1 << 20) })
	rp.metric("peak_heap_mb", heap, "MB", fmt.Sprintf("host; heap the workload holds live at the end of the schedule, median of %d, spread %.1f%%", n, 100*heapSpr), true)
	if o.background {
		rp.metric("provision_p50_ms", o.provLat.quantileMS(0.5), "ms", fmt.Sprintf("virtual; request->grant over %d grants", len(o.provLat)), false)
		rp.metric("provision_p99_ms", o.provLat.quantileMS(0.99), "ms", fmt.Sprintf("virtual; %d grants, %d beyond p99", len(o.provLat), len(o.provLat)/100), false)
		rp.metric("admit_reject_ratio", ratio(o.rejects, o.admits), "ratio", fmt.Sprintf("virtual; %d refused of %d admissions settled", o.rejects, o.admits), false)
	}
	return o.attempted(), o.failed(), nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// tracedRun reports the per-layer metrics: untraced and traced
// repetitions, the allocator replay and the replay twin.
func tracedRun(w workloadSpec, seed int64, budget time.Duration, rp *report, spanDir string) (int, int, error) {
	// Untraced and traced repetitions alternate, each on a fresh system,
	// so drift in the machine's speed touches both alike. Spans and replay
	// costs are wall-clock times, so the comparison is in wall time too.
	type tracedRep struct {
		tr   *tracer
		o    *outcome
		cnt  layerCounts
		wall time.Duration
	}
	var reps []rep
	var trs []tracedRep
	var sys system
	start := time.Now()
	for len(trs) < tracedReps || time.Since(start) < budget/2 {
		r, err := runRep(w, seed)
		if err != nil {
			return 0, 0, err
		}
		rp.checkRep(fmt.Sprintf("repetition %d", len(reps)+1), r.out, reps)
		reps = append(reps, r)

		goruntime.GC()
		if sys, err = w.build(seed, nil); err != nil {
			return 0, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		before := sys.counts()
		tr := newTracer()
		t0 := time.Now()
		o := sys.run(tr)
		wall := time.Since(t0)
		trs = append(trs, tracedRep{tr: tr, o: o, cnt: sys.counts().sub(before), wall: wall})
		rp.checkRep(fmt.Sprintf("traced run %d", len(trs)), o, reps)
	}
	untraced, _ := medianOf(hostReps(reps), rep.wallNsPerOp)
	// The layers come from the traced run whose time is the median.
	sort.Slice(trs, func(i, j int) bool { return trs[i].wall < trs[j].wall })
	mid := trs[len(trs)/2]
	tr, o, cnt := mid.tr, mid.o, mid.cnt
	cost := calibrate()
	spanFile := filepath.Join(spanDir, w.name+".csv")
	if err := tr.write(spanFile); err != nil {
		return 0, 0, fmt.Errorf("writing spans: %w", err)
	}

	st, err := replayAlloc(sys.allocLogs(), 5)
	if err != nil {
		rp.fail("%v", err)
		st = &allocStats{}
	}

	// Replay twin, sampling about replaySamples calls of each kind spread
	// over the whole schedule.
	rpl := &replayer{
		swEvery:  every(cnt.framesIn),
		clEvery:  every(cnt.clientRx),
		srvEvery: every(cnt.serverReqs),
	}
	twin, err := w.build(seed, rpl)
	if err != nil {
		return 0, 0, fmt.Errorf("%s replay set-up: %w", w.name, err)
	}
	twin.run(nil)
	if !rpl.ok() {
		rp.fail("replay: %d path mismatches, %d guard drops, %d guard denials", rpl.mismatches, rpl.guardDrops, rpl.checkDenied)
	}
	for _, e := range rpl.errs {
		rp.fail("replay: %s", e)
	}

	layerMetrics(rp, layerInput{
		ops: o.ops, untracedNs: untraced, tracedNs: float64(mid.wall.Nanoseconds()) / float64(o.ops),
		tr: tr, cost: cost, cnt: cnt, rpl: rpl, alloc: st, fragmentation: o.frag, spanFile: spanFile, keptSpans: len(tr.spans),
	})
	return o.attempted(), o.failed(), nil
}

// tracedReps is the fewest traced runs a traced invocation makes.
const tracedReps = 3

// replaySamples is roughly how many calls of each kind the replay twin
// samples.
const replaySamples = 1500

// every is the sampling interval that spreads replaySamples samples over n
// calls. Each sample puts replayReps duplicate frames into the twin's
// network, which the next tap on their path may sample again; an interval
// well above replayReps keeps that from compounding.
func every(n uint64) int {
	if e := int(n / replaySamples); e > 2*replayReps {
		return e
	}
	return 2 * replayReps
}
