package experiments

import (
	"fmt"
	gort "runtime"
	"time"

	"activermt/internal/compiler"
	"activermt/internal/core"
	"activermt/internal/isa"
	"activermt/internal/packet"
	art "activermt/internal/runtime"
	"activermt/internal/telemetry"
)

// This file is the packet-path throughput harness behind `activebench
// -lanes N`: it measures raw capsule executions per second — the
// single-capsule path the switch runs, its batched form, and the multi-lane
// dataplane — on a multi-tenant cache workload. Unlike the
// figure experiments it measures wall-clock, not virtual time, so it is not
// in the Registry; the result goes to BENCH_pipeline.json for regression
// tracking (see `make benchdiff`).

// PipelineBenchConfig sizes the throughput run.
type PipelineBenchConfig struct {
	Tenants int   // cache tenants deployed (default 8)
	Packets int   // capsules per measured run (default 200k)
	Lanes   []int // lane counts to measure (default 1,2,4)
	Ring    int   // pre-built capsules per tenant (default 64)

	// FabricPackets sizes the leaf-spine end-to-end series (default
	// Packets/50: each fabric GET is a full multi-hop simulation, orders of
	// magnitude heavier than one execute-loop capsule). Negative skips the
	// series.
	FabricPackets int

	// MulticorePackets sizes the multi-core lane-scaling series (default
	// Packets). Negative skips the series.
	MulticorePackets int

	// Registry, when non-nil, is attached for the telemetry-enabled run
	// instead of a private one — activebench passes the registry it serves
	// over HTTP so a live scrape observes the measured run.
	Registry *telemetry.Registry
}

// LaneRate is one measured configuration. Lanes==0 denotes the
// single-threaded ExecuteCapsule loop (no dispatch machinery at all).
type LaneRate struct {
	Lanes   int     `json:"lanes"`
	Packets int     `json:"packets"`
	Seconds float64 `json:"seconds"`
	PPS     float64 `json:"pps"`
	Speedup float64 `json:"speedup_vs_single"`

	// AllocsPerOp is the heap allocations per packet (or per GET round
	// trip) over the measured window; recorded by the fabric series.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// PipelineBench is the harness result, serialized to BENCH_pipeline.json.
// Single is the single-threaded ExecuteCapsule loop (the path the switch
// runs; every capsule executes its compiled plan), and Batch runs the same
// loop through ExecuteBatch. SingleTelemetry repeats the Single measurement
// with the full telemetry registry attached (counters, latency histogram,
// flight recorder); TelemetryDelta is its overhead relative to Single — the
// regression gate requires it to stay within 10%.
type PipelineBench struct {
	Tenants         int        `json:"tenants"`
	Ring            int        `json:"ring_per_tenant"`
	GoMaxProcs      int        `json:"gomaxprocs"`
	NumCPU          int        `json:"numcpu"`
	Single          LaneRate   `json:"single"`
	Batch           LaneRate   `json:"batch"`
	SingleTelemetry LaneRate   `json:"single_telemetry"`
	TelemetryDelta  float64    `json:"telemetry_delta_pct"`
	Lanes           []LaneRate `json:"lanes"`

	// Multicore is the lane-scaling series measured under a multi-threaded
	// scheduler (see RunMulticoreBench). Nil in pre-multicore baselines.
	Multicore *MulticoreBench `json:"multicore,omitempty"`

	// Fabric is the leaf-spine end-to-end series (RunFabricBench): GET
	// round trips per wall second through a 2x1 fabric, with the heap
	// allocations per GET. Its Speedup field is the ratio to Single — well
	// below 1 by construction (a round trip simulates every hop), but stable
	// on a given build, so the gate can catch relay-path regressions
	// ratio-wise. Zero when the series was skipped (pre-fabric baselines).
	Fabric LaneRate `json:"fabric,omitempty"`

	// Defrag is the online-defragmentation series (RunDefragBench): a
	// virtual-time churn + adaptive-policy migration run, deterministic per
	// build. All zeros in pre-defrag baselines.
	Defrag DefragStat `json:"defrag"`

	// Secapps is the security-app quality series (RunSecappsBench):
	// virtual-time deterministic detection, enforcement, and recirculation
	// accounting. All zeros in pre-secapps baselines.
	Secapps SecappsStat `json:"secapps"`
}

// pipelineCacheProg is the paper's cache query (Listing 1): three memory
// accesses, the workload the multi-tenant throughput claim is made on.
var pipelineCacheProg = isa.MustAssemble("bench-cache", `
.arg ADDR 2
MAR_LOAD $ADDR
MEM_READ
MBR_EQUALS_DATA_1
CRET
MEM_READ
MBR_EQUALS_DATA_2
CRET
RTS
MEM_READ
MBR_STORE
RETURN
`)

// buildPipelineWorkload deploys the tenants and pre-builds the capsule ring.
// Capsules are fully decoded up front — the harness measures execution, not
// parsing (cmd-level ingress decoding is covered by the program cache).
func buildPipelineWorkload(cfg PipelineBenchConfig) (*core.System, []*packet.Active, error) {
	sys, err := core.New(core.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	specs := []compiler.AccessSpec{{AlignGroup: 1}, {AlignGroup: 1}, {AlignGroup: 1}}
	deps := make([]*core.Deployment, cfg.Tenants)
	for t := 0; t < cfg.Tenants; t++ {
		fid := uint16(t + 1)
		dep, err := sys.Deploy(fid, pipelineCacheProg, true, specs)
		if err != nil {
			return nil, nil, fmt.Errorf("deploy tenant %d: %w", fid, err)
		}
		deps[t] = dep
	}
	ring := make([]*packet.Active, 0, cfg.Tenants*cfg.Ring)
	for t, dep := range deps {
		fid := uint16(t + 1)
		// Elastic neighbors shrink as later tenants arrive, so addresses come
		// from the FINAL placement, after every deployment committed. Bucket
		// addressing is client-side (Section 3.2): the capsule carries an
		// absolute address inside the tenant's granted region.
		pl, ok := sys.AL.PlacementFor(fid)
		if !ok {
			return nil, nil, fmt.Errorf("tenant %d lost its placement", fid)
		}
		lo := pl.Accesses[0].Range.Lo
		words := pl.Accesses[0].Range.Hi - lo
		for k := 0; k < cfg.Ring; k++ {
			addr := lo + uint32(k*2654435761)%words
			a := &packet.Active{
				Header:  packet.ActiveHeader{FID: fid},
				Args:    [4]uint32{uint32(k), uint32(k) ^ 0x5a5a, addr, 0},
				Program: dep.Program,
			}
			a.Header.SetType(packet.TypeProgram)
			ring = append(ring, a)
		}
	}
	// Interleave tenants round-robin so lane dispatch sees a mixed stream.
	mixed := make([]*packet.Active, 0, len(ring))
	for k := 0; k < cfg.Ring; k++ {
		for t := 0; t < cfg.Tenants; t++ {
			mixed = append(mixed, ring[t*cfg.Ring+k])
		}
	}
	return sys, mixed, nil
}

// BuildPacketPathWorkload deploys `tenants` cache tenants and returns the
// interleaved capsule ring (`ring` capsules per tenant) — the shared setup
// for BenchmarkPacketPath and the zero-allocation gate test.
func BuildPacketPathWorkload(tenants, ring int) (*core.System, []*packet.Active, error) {
	return buildPipelineWorkload(PipelineBenchConfig{Tenants: tenants, Ring: ring})
}

// measureLaneRun measures one lane count: fresh workload, warm-up pass,
// then the timed dispatch of cfg.Packets through the SPSC rings (Stop —
// which drains — is inside the window). Shared by the single-core lanes
// series and the multi-core series; Speedup is left for the caller to fill
// against its own baseline.
func measureLaneRun(cfg PipelineBenchConfig, n int) (LaneRate, error) {
	sys, ring, err := buildPipelineWorkload(cfg)
	if err != nil {
		return LaneRate{}, err
	}
	ln, err := sys.RT.NewLanes(n)
	if err != nil {
		return LaneRate{}, err
	}
	// Warm-up pass.
	for i := 0; i < len(ring); i++ {
		ln.Dispatch(ring[i], uint32(i))
	}
	ln.Quiesce()
	start := time.Now()
	for i := 0; i < cfg.Packets; i++ {
		ln.Dispatch(ring[i%len(ring)], uint32(i))
	}
	ln.Stop()
	el := time.Since(start)
	return LaneRate{
		Lanes:   n,
		Packets: cfg.Packets,
		Seconds: el.Seconds(),
		PPS:     float64(cfg.Packets) / el.Seconds(),
	}, nil
}

// RunPipelineBench measures the single-threaded fast path and each requested
// lane count over the same pre-built capsule stream.
func RunPipelineBench(cfg PipelineBenchConfig) (*PipelineBench, error) {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 8
	}
	if cfg.Packets <= 0 {
		cfg.Packets = 200_000
	}
	if cfg.Ring <= 0 {
		cfg.Ring = 64
	}
	if len(cfg.Lanes) == 0 {
		cfg.Lanes = []int{1, 2, 4}
	}

	res := &PipelineBench{
		Tenants:    cfg.Tenants,
		Ring:       cfg.Ring,
		GoMaxProcs: gort.GOMAXPROCS(0),
		NumCPU:     gort.NumCPU(),
	}

	// Single-threaded path: one ExecResult, one sink, no dispatch. Measured
	// three ways — per capsule (the baseline all speedups are relative to),
	// per capsule with the telemetry registry attached (so the
	// instrumentation overhead is a first-class number), and batched.
	singleRun := func(withTelemetry, batched bool) (LaneRate, error) {
		sys, ring, err := buildPipelineWorkload(cfg)
		if err != nil {
			return LaneRate{}, err
		}
		if withTelemetry {
			reg := cfg.Registry
			if reg == nil {
				reg = telemetry.NewRegistry()
			}
			sys.RT.AttachTelemetry(reg)
		}
		er := art.NewExecResult()
		sink := sys.RT.NewExecSink()
		run := func(n int) {
			if batched {
				bs := art.DefaultExecBatch
				for done := 0; done < n; done += bs {
					off := done % len(ring)
					end := off + bs
					if end > len(ring) {
						end = len(ring)
					}
					sys.RT.ExecuteBatch(ring[off:end], er, sink, nil)
				}
			} else {
				for i := 0; i < n; i++ {
					sys.RT.ExecuteCapsule(ring[i%len(ring)], er, sink)
				}
			}
		}
		// Warm the scratch buffers (and the plan cache) out of the window.
		run(len(ring))
		start := time.Now()
		run(cfg.Packets)
		el := time.Since(start)
		sink.Path.FlushInto(sys.RT)
		sink.Dev.FlushInto(sys.RT.Device())
		return LaneRate{
			Lanes:   0,
			Packets: cfg.Packets,
			Seconds: el.Seconds(),
			PPS:     float64(cfg.Packets) / el.Seconds(),
			Speedup: 1,
		}, nil
	}
	var err error
	if res.Single, err = singleRun(false, false); err != nil {
		return nil, err
	}
	if res.Batch, err = singleRun(false, true); err != nil {
		return nil, err
	}
	if res.SingleTelemetry, err = singleRun(true, false); err != nil {
		return nil, err
	}
	res.Batch.Speedup = res.Batch.PPS / res.Single.PPS
	res.SingleTelemetry.Speedup = res.SingleTelemetry.PPS / res.Single.PPS
	res.TelemetryDelta = (res.Single.PPS/res.SingleTelemetry.PPS - 1) * 100
	// One-sided budget: attaching telemetry cannot make the path faster, so
	// a negative delta is host noise, not a property of the build. Clamp at
	// zero so the committed baseline and the ≤10% gate both read "within
	// noise" instead of a spurious negative overhead.
	if res.TelemetryDelta < 0 {
		res.TelemetryDelta = 0
	}

	for _, n := range cfg.Lanes {
		lr, err := measureLaneRun(cfg, n)
		if err != nil {
			return nil, err
		}
		lr.Speedup = lr.PPS / res.Single.PPS
		res.Lanes = append(res.Lanes, lr)
	}

	if cfg.MulticorePackets >= 0 {
		mcCfg := cfg
		if cfg.MulticorePackets > 0 {
			mcCfg.Packets = cfg.MulticorePackets
		}
		if res.Multicore, err = RunMulticoreBench(mcCfg); err != nil {
			return nil, err
		}
	}

	if cfg.FabricPackets >= 0 {
		n := cfg.FabricPackets
		if n == 0 {
			n = cfg.Packets / 50
		}
		if res.Fabric, err = RunFabricBench(n); err != nil {
			return nil, err
		}
		res.Fabric.Speedup = res.Fabric.PPS / res.Single.PPS
	}
	if res.Defrag, err = RunDefragBench(1); err != nil {
		return nil, err
	}
	if res.Secapps, err = RunSecappsBench(1); err != nil {
		return nil, err
	}
	return res, nil
}
