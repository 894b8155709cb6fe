// Command activebench regenerates the tables and figures of the ActiveRMT
// paper's evaluation (Section 6).
//
// Usage:
//
//	activebench -list
//	activebench [-quick] [-seed N] [-out DIR] fig5a fig8b ...
//	activebench [-quick] all
//	activebench -pipeline [-packets M]
//
// Each experiment prints its headline metrics and notes to stdout and
// writes its CSV data series to DIR/<id>.csv (default: results/).
//
// -pipeline runs the packet-path throughput harness instead: capsule
// executions per second through the path the switch runs, bare and with
// telemetry attached, plus the end-to-end fabric series, written to
// BENCH_pipeline.json for the perf trajectory (gated by `make benchdiff`).
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
	pipeline := flag.Bool("pipeline", false, "run the packet-path throughput harness")
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
	if *pipeline {
		if err := runPipelineBench(*packets, *benchOut, *telAddr); err != nil {
			fmt.Fprintln(os.Stderr, "activebench:", err)
			os.Exit(1)
		}
		return
	}
	if *telAddr != "" {
		fmt.Fprintln(os.Stderr, "activebench: -telemetry applies to the -pipeline throughput harness")
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
		for _, k := range res.MetricKeys() {
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

// runPipelineBench runs the throughput harness and writes the result JSON.
// With telAddr set, the telemetry-enabled run's registry is served over HTTP
// for the duration of the harness so it can be scraped live.
func runPipelineBench(packets int, path, telAddr string) error {
	cfg := experiments.PipelineBenchConfig{Packets: packets}
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
	fmt.Printf("   %-12s %12.0f pps   (ExecuteCapsule baseline)\n", "single", res.Single.PPS)
	fmt.Printf("   %-12s %12.0f pps   %+.1f%% telemetry overhead\n",
		"single+tel", res.SingleTelemetry.PPS, res.TelemetryDelta)
	if res.Fabric.PPS > 0 {
		fmt.Printf("   %-12s %12.0f rtts  %.4fx vs single, %.1f allocs/GET (%d-switch leaf-spine, end to end)\n",
			"fabric", res.Fabric.PPS, res.Fabric.Speedup, res.Fabric.AllocsPerOp, res.Fabric.Switches)
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
