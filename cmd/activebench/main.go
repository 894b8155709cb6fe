// Command activebench regenerates the tables and figures of the ActiveRMT
// paper's evaluation (Section 6).
//
// Usage:
//
//	activebench -list
//	activebench [-quick] [-seed N] [-out DIR] fig5a fig8b ...
//	activebench [-quick] all
//	activebench -lanes N [-packets M]
//
// Each experiment prints its headline metrics and notes to stdout and
// writes its CSV data series to DIR/<id>.csv (default: results/).
//
// -lanes N runs the packet-path throughput harness instead: capsule
// executions per second for the single-capsule path the switch runs, its
// batched form, and the multi-lane dataplane at 1..N lanes, plus the
// end-to-end fabric series, written to BENCH_pipeline.json for the perf
// trajectory (gated by `make benchdiff`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"activermt/internal/experiments"
	"activermt/internal/telemetry"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	quick := flag.Bool("quick", false, "reduced trials/epochs")
	seed := flag.Int64("seed", 1, "workload seed")
	out := flag.String("out", "results", "output directory for CSV series")
	lanes := flag.Int("lanes", 0, "run the packet-path throughput harness up to N lanes")
	packets := flag.Int("packets", 0, "throughput harness: capsules per measured run")
	benchOut := flag.String("bench-out", "BENCH_pipeline.json", "throughput harness: result file")
	telAddr := flag.String("telemetry", "", "serve telemetry (Prometheus /metrics, JSON, pprof) on this address during the throughput harness")
	flag.Parse()

	if *list {
		for _, s := range experiments.Registry {
			fmt.Printf("%-8s %s\n         paper: %s\n", s.ID, s.Title, s.Paper)
		}
		return
	}
	if *lanes > 0 {
		if err := runPipelineBench(*lanes, *packets, *benchOut, *telAddr); err != nil {
			fmt.Fprintln(os.Stderr, "activebench:", err)
			os.Exit(1)
		}
		return
	}
	if *telAddr != "" {
		fmt.Fprintln(os.Stderr, "activebench: -telemetry applies to the -lanes throughput harness")
		os.Exit(2)
	}
	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "activebench: name experiments to run, or 'all' (see -list)")
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = ids[:0]
		for _, s := range experiments.Registry {
			ids = append(ids, s.ID)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "activebench:", err)
		os.Exit(1)
	}

	cfg := experiments.RunConfig{Quick: *quick, Seed: *seed}
	failed := 0
	for _, id := range ids {
		spec, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "activebench: unknown experiment %q\n", id)
			failed++
			continue
		}
		fmt.Printf("== %s: %s\n", spec.ID, spec.Title)
		fmt.Printf("   paper: %s\n", spec.Paper)
		start := time.Now()
		res, err := spec.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "activebench: %s: %v\n", id, err)
			failed++
			continue
		}
		path := filepath.Join(*out, res.ID+".csv")
		if err := os.WriteFile(path, []byte(res.CSV), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "activebench: %s: %v\n", id, err)
			failed++
			continue
		}
		for _, k := range sortedKeys(res.Metrics) {
			fmt.Printf("   %-40s %g\n", k, res.Metrics[k])
		}
		for _, n := range res.Notes {
			fmt.Printf("   note: %s\n", n)
		}
		fmt.Printf("   data: %s (%.1fs)\n\n", path, time.Since(start).Seconds())
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runPipelineBench measures capsule throughput at 1,2,4,...,n lanes against
// the single-threaded fast path and writes the result JSON. With telAddr
// set, the telemetry-enabled run's registry is served over HTTP for the
// duration of the harness so it can be scraped live.
func runPipelineBench(n, packets int, path, telAddr string) error {
	counts := []int{}
	for c := 1; c < n; c *= 2 {
		counts = append(counts, c)
	}
	counts = append(counts, n)
	cfg := experiments.PipelineBenchConfig{
		Lanes:   counts,
		Packets: packets,
	}
	if telAddr != "" {
		cfg.Registry = telemetry.NewRegistry()
		srv, err := telemetry.Serve(cfg.Registry, telAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("telemetry: serving http://%s/metrics\n", srv.Addr())
	}
	res, err := experiments.RunPipelineBench(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("== packet-path throughput (%d tenants, cache workload, GOMAXPROCS=%d)\n",
		res.Tenants, res.GoMaxProcs)
	fmt.Printf("   %-12s %12.0f pps   (single-capsule baseline)\n", "single", res.Single.PPS)
	fmt.Printf("   %-12s %12.0f pps   %.2fx vs single\n", "batch", res.Batch.PPS, res.Batch.Speedup)
	fmt.Printf("   %-12s %12.0f pps   %+.1f%% telemetry overhead\n",
		"single+tel", res.SingleTelemetry.PPS, res.TelemetryDelta)
	for _, lr := range res.Lanes {
		fmt.Printf("   %-12s %12.0f pps   %.2fx vs single\n",
			fmt.Sprintf("lanes=%d", lr.Lanes), lr.PPS, lr.Speedup)
	}
	if mc := res.Multicore; mc != nil {
		fmt.Printf("   multicore series (GOMAXPROCS=%d, numcpu=%d):\n", mc.GoMaxProcs, mc.NumCPU)
		for _, lr := range mc.Lanes {
			fmt.Printf("   %-12s %12.0f pps   %.2fx vs 1 lane (%.0f pps/lane)\n",
				fmt.Sprintf("mc lanes=%d", lr.Lanes), lr.PPS, lr.SpeedupVs1, lr.PerLanePPS)
		}
		fmt.Printf("   %-12s %12.2f       (speedup per lane at the 4-lane point)\n",
			"scaling eff", mc.ScalingEfficiency)
	}
	if res.Fabric.PPS > 0 {
		fmt.Printf("   %-12s %12.0f rtts  %.4fx vs single, %.1f allocs/GET (%d-switch leaf-spine, end to end)\n",
			"fabric", res.Fabric.PPS, res.Fabric.Speedup, res.Fabric.AllocsPerOp, res.Fabric.Lanes)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("   data: %s\n", path)
	return nil
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
