// Command benchdiff is the packet-path benchmark regression gate behind
// `make benchdiff`: it re-runs the pipeline throughput harness in-process
// (the same experiments.RunPipelineBench that produced BENCH_pipeline.json)
// and fails with a nonzero exit when the measured numbers regress past the
// committed baseline's noise bounds.
//
// Gating is ratio-based by default so the gate is machine-independent: raw
// pps moves with the host, but the fabric ratio to the ExecuteCapsule path,
// the telemetry overhead, and the allocations per fabric GET are properties
// of the code. Both single-capsule series run ExecuteCapsule with its
// per-capsule accounting drain — the cost switchd pays — so the telemetry
// gate prices exactly what attaching a registry adds to it; the harness
// measures that overhead as the median of interleaved bare/telemetry chunk
// pairs.
//
//	hard gates (from the perf acceptance criteria, independent of baseline):
//	  telemetry overhead  <= 10% of single (one-sided: negative deltas are
//	                         noise, not credit)
//	  fabric allocations  <= 18 per GET round trip
//	baseline gates (vs the committed BENCH_pipeline.json, -tolerance noise):
//	  fabric allocations per GET not above baseline by > tolerance
//	  telemetry overhead not above baseline by > tolerance (percentage pts)
//	  fabric end-to-end ratio vs single not below baseline by > tolerance
//
// -absolute additionally compares raw pps per series against the baseline —
// only meaningful when the baseline was produced on this same machine.
//
// Noise is handled by N trials (-trials): each pps series keeps its fastest
// observed run, while the gated ratios (and allocations per fabric GET) are
// medians of per-trial values — paired measurements with robust
// aggregation, so neither a throttled trial nor an unconverged denominator
// fakes a regression. -rebase regenerates the committed baseline with the
// same methodology (use it, not a single activebench shot, so both sides of
// the diff share noise treatment).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"activermt/internal/experiments"
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_pipeline.json", "committed baseline to diff against")
	trials := flag.Int("trials", 3, "harness runs; each series keeps its best")
	packets := flag.Int("packets", 1_000_000, "capsules per measured run")
	tolerance := flag.Float64("tolerance", 10, "allowed regression vs baseline, percent")
	absolute := flag.Bool("absolute", false, "also gate raw pps vs baseline (same-machine only)")
	rebase := flag.Bool("rebase", false, "regenerate the baseline file instead of gating")
	out := flag.String("out", "", "write the merged best-of-N result JSON here")
	flag.Parse()

	var err error
	if *rebase {
		err = runRebase(*baselinePath, *trials, *packets)
	} else {
		err = run(*baselinePath, *trials, *packets, *tolerance, *absolute, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// runRebase rewrites the committed baseline with a best-of-N measurement, so
// the baseline carries the same noise treatment the gate applies to the
// current build.
func runRebase(path string, trials, packets int) error {
	res, err := bestOf(trials, packets)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchdiff: rebased %s (best of %d, %d packets/run)\n", path, trials, packets)
	fmt.Printf("  single      %12.0f pps\n", res.Single.PPS)
	fmt.Printf("  single+tel  %12.0f pps  %+.1f%%\n", res.SingleTelemetry.PPS, res.TelemetryDelta)
	if res.Fabric.PPS > 0 {
		fmt.Printf("  fabric      %12.0f rtts %.4fx, %.1f allocs/GET (%d switches)\n",
			res.Fabric.PPS, res.Fabric.Speedup, res.Fabric.AllocsPerOp, res.Fabric.Switches)
	}
	fmt.Printf("  defrag      frag %.4f -> %.4f, %d migrations, %d blocks, %d words\n",
		res.Defrag.FragBefore, res.Defrag.FragAfter,
		res.Defrag.Migrations, res.Defrag.BlocksMoved, res.Defrag.WordsRestored)
	fmt.Printf("  secapps     syn p/r %.2f/%.2f, rl %d/%d delivered, hh claims %d (deferred %d, throttled %d)\n",
		res.Secapps.SynPrecision, res.Secapps.SynRecall,
		res.Secapps.RLDelivered, res.Secapps.RLOffered,
		res.Secapps.HHClaims, res.Secapps.HHDeferred, res.Secapps.HHThrottled)
	return nil
}

func run(baselinePath string, trials, packets int, tolerance float64, absolute bool, out string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base experiments.PipelineBench
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline: %w", err)
	}
	if trials < 1 {
		trials = 1
	}

	cur, err := bestOf(trials, packets)
	if err != nil {
		return err
	}
	if out != "" {
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	fmt.Printf("benchdiff: best of %d trial(s) vs %s (tolerance %.0f%%)\n", trials, baselinePath, tolerance)
	fmt.Printf("  %-14s %14s %14s %9s\n", "series", "baseline pps", "current pps", "ratio")
	row := func(name string, b, c experiments.Rate) {
		ratio := 0.0
		if b.PPS > 0 {
			ratio = c.PPS / b.PPS
		}
		fmt.Printf("  %-14s %14.0f %14.0f %8.2fx\n", name, b.PPS, c.PPS, ratio)
	}
	row("single", base.Single, cur.Single)
	row("single+tel", base.SingleTelemetry, cur.SingleTelemetry)
	row("fabric", base.Fabric, cur.Fabric)
	fmt.Printf("  %-14s baseline %.1f   current %.1f\n",
		"fabric allocs", base.Fabric.AllocsPerOp, cur.Fabric.AllocsPerOp)
	fmt.Printf("  %-14s baseline %+.1f%%   current %+.1f%%\n",
		"telemetry", base.TelemetryDelta, cur.TelemetryDelta)
	fmt.Printf("  %-14s baseline %.4f->%.4f (%d migrations)   current %.4f->%.4f (%d migrations, %d blocks)\n",
		"defrag", base.Defrag.FragBefore, base.Defrag.FragAfter, base.Defrag.Migrations,
		cur.Defrag.FragBefore, cur.Defrag.FragAfter, cur.Defrag.Migrations, cur.Defrag.BlocksMoved)
	fmt.Printf("  %-14s baseline p/r %.2f/%.2f claims %d   current p/r %.2f/%.2f claims %d (deferred %d, throttled %d)\n",
		"secapps", base.Secapps.SynPrecision, base.Secapps.SynRecall, base.Secapps.HHClaims,
		cur.Secapps.SynPrecision, cur.Secapps.SynRecall,
		cur.Secapps.HHClaims, cur.Secapps.HHDeferred, cur.Secapps.HHThrottled)

	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}

	// Hard gates: the acceptance criteria hold regardless of the baseline.
	const maxTelemetryDelta = 10.0
	const maxFabricAllocs = 18.0
	if cur.TelemetryDelta > maxTelemetryDelta {
		fail("telemetry overhead %.1f%% above the hard %.0f%% gate", cur.TelemetryDelta, maxTelemetryDelta)
	}
	if cur.Fabric.AllocsPerOp > maxFabricAllocs {
		fail("fabric allocations %.1f/GET above the hard %.0f gate", cur.Fabric.AllocsPerOp, maxFabricAllocs)
	}

	// Baseline gates: ratios must not regress past the noise bound.
	slack := 1 - tolerance/100
	// The fabric series gates on its ratio to the single-capsule series: a
	// relay-path or multi-hop regression shows up here even when raw pps
	// moves with the host. Absent from pre-fabric baselines (Speedup 0).
	if base.Fabric.Speedup > 0 && cur.Fabric.Speedup < base.Fabric.Speedup*slack {
		fail("fabric ratio %.4fx regressed >%.0f%% from baseline %.4fx",
			cur.Fabric.Speedup, tolerance, base.Fabric.Speedup)
	}
	// Allocations per GET are a property of the code, not the host: they
	// may not grow past the baseline's by more than the tolerance. Absent
	// from baselines that predate the measurement.
	if b := base.Fabric.AllocsPerOp; b > 0 && cur.Fabric.AllocsPerOp > b*(1+tolerance/100) {
		fail("fabric allocations %.1f/GET grew >%.0f%% from baseline %.1f",
			cur.Fabric.AllocsPerOp, tolerance, b)
	}
	// The defrag series is virtual-time deterministic, so it gates on exact
	// shape, not a noise band: once a baseline records migrations, the
	// current build must still migrate and must still reduce fragmentation.
	// A baseline without the series (pre-defrag) contributes nothing.
	if base.Defrag.Migrations > 0 {
		if cur.Defrag.Migrations == 0 {
			fail("defrag series migrated 0 tenants (baseline migrated %d)", base.Defrag.Migrations)
		}
		if cur.Defrag.FragAfter >= cur.Defrag.FragBefore {
			fail("defrag did not reduce fragmentation: %.4f -> %.4f",
				cur.Defrag.FragBefore, cur.Defrag.FragAfter)
		}
	}
	// The secapps series is virtual-time deterministic like defrag, so it
	// gates on exact quality once a baseline records it: detection must stay
	// at or above 0.95 precision/recall, enforcement must keep delivering
	// strictly less than the flooding tenants offer, and the cooperative
	// recirculation driver must never trip the limiter. A baseline without
	// the series (pre-secapps) contributes nothing.
	if base.Secapps.HHClaims > 0 {
		if cur.Secapps.SynPrecision < 0.95 || cur.Secapps.SynRecall < 0.95 {
			fail("secapps detection quality fell: precision %.2f recall %.2f (want >= 0.95)",
				cur.Secapps.SynPrecision, cur.Secapps.SynRecall)
		}
		if cur.Secapps.RLDelivered == 0 || cur.Secapps.RLDelivered >= cur.Secapps.RLOffered {
			fail("secapps rate limiter not enforcing: delivered %d of %d offered",
				cur.Secapps.RLDelivered, cur.Secapps.RLOffered)
		}
		if cur.Secapps.HHClaims == 0 {
			fail("secapps heavy hitter issued 0 claims (baseline %d)", base.Secapps.HHClaims)
		}
		if cur.Secapps.HHThrottled > 0 {
			fail("secapps heavy hitter tripped the recirculation limiter %d time(s)", cur.Secapps.HHThrottled)
		}
	}
	// A noisy baseline can measure telemetry as faster than bare (delta < 0);
	// clamp at 0 so such a baseline never gates harder than the hard gate.
	baseDelta := base.TelemetryDelta
	if baseDelta < 0 {
		baseDelta = 0
	}
	if cur.TelemetryDelta > baseDelta+tolerance {
		fail("telemetry overhead %.1f%% worsened >%.0fpts from baseline %.1f%%",
			cur.TelemetryDelta, tolerance, baseDelta)
	}

	if absolute {
		abs := func(name string, b, c experiments.Rate) {
			if b.PPS > 0 && c.PPS < b.PPS*slack {
				fail("%s %0.f pps regressed >%.0f%% from baseline %.0f pps", name, c.PPS, tolerance, b.PPS)
			}
		}
		abs("single", base.Single, cur.Single)
		abs("single+tel", base.SingleTelemetry, cur.SingleTelemetry)
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchdiff: FAIL:", f)
		}
		return fmt.Errorf("%d regression(s)", len(failures))
	}
	fmt.Println("benchdiff: PASS")
	return nil
}

// bestOf runs the harness `trials` times and merges the results: each series
// keeps its fastest observed pps (one-sided scheduler noise filtered), while
// the gated ratios — the fabric ratio and the telemetry delta — and the
// allocations per fabric GET are the MEDIAN of the per-trial values.
// Per-trial ratios pair numerator and denominator measured seconds apart
// (correlated host noise cancels), and the median is robust to a single
// trial landing on a throttled slice; a max-over-trials ratio would instead
// inflate whenever the denominator's max failed to converge.
func bestOf(trials, packets int) (*experiments.PipelineBench, error) {
	var merged *experiments.PipelineBench
	var telUps, telDeltas, fabricUps, fabricAllocs []float64
	for i := 0; i < trials; i++ {
		res, err := experiments.RunPipelineBench(experiments.PipelineBenchConfig{Packets: packets})
		if err != nil {
			return nil, err
		}
		telUps = append(telUps, res.SingleTelemetry.Speedup)
		telDeltas = append(telDeltas, res.TelemetryDelta)
		fabricUps = append(fabricUps, res.Fabric.Speedup)
		fabricAllocs = append(fabricAllocs, res.Fabric.AllocsPerOp)
		if merged == nil {
			merged = res
			continue
		}
		keep := func(dst, src *experiments.Rate) {
			if src.PPS > dst.PPS {
				*dst = *src
			}
		}
		keep(&merged.Single, &res.Single)
		keep(&merged.SingleTelemetry, &res.SingleTelemetry)
		keep(&merged.Fabric, &res.Fabric)
	}
	merged.SingleTelemetry.Speedup = median(telUps)
	merged.TelemetryDelta = median(telDeltas)
	merged.Fabric.Speedup = median(fabricUps)
	merged.Fabric.AllocsPerOp = median(fabricAllocs)
	return merged, nil
}

// median of a small slice (sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
