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
	"activermt/internal/stats"
	"activermt/internal/telemetry"
)

// This file is the packet-path throughput harness behind `activebench
// -pipeline`: it measures raw capsule executions per second through
// ExecuteCapsule — the path the switch runs, accounting drain included — on
// a multi-tenant cache workload, bare and with telemetry attached, plus the
// end-to-end fabric, defrag and secapps series. Unlike the figure
// experiments it measures wall-clock, not virtual time, so it is not in the
// Registry; the result goes to BENCH_pipeline.json for regression tracking
// (see `make benchdiff`).

// PipelineBenchConfig sizes the throughput run.
type PipelineBenchConfig struct {
	Tenants int // cache tenants deployed (default 8)
	Packets int // capsules per measured run (default 200k)
	Ring    int // pre-built capsules per tenant (default 64)

	// FabricPackets sizes the leaf-spine end-to-end series (default
	// Packets/50: each fabric GET is a full multi-hop simulation, orders of
	// magnitude heavier than one execute-loop capsule). Negative skips the
	// series.
	FabricPackets int

	// Registry, when non-nil, is attached for the telemetry-enabled run
	// instead of a private one — activebench passes the registry it serves
	// over HTTP so a live scrape observes the measured run.
	Registry *telemetry.Registry
}

// Rate is one measured throughput series.
type Rate struct {
	Packets int     `json:"packets"`
	Seconds float64 `json:"seconds"`
	PPS     float64 `json:"pps"`
	Speedup float64 `json:"speedup_vs_single"`

	// AllocsPerOp is the heap allocations per GET round trip over the
	// measured window, and Switches the fabric's switch count; both are
	// recorded by the fabric series only.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Switches    int     `json:"switches,omitempty"`
}

// pipelineRounds is the number of interleaved bare/telemetry chunk pairs a
// harness run measures.
const pipelineRounds = 20

// PipelineBench is the harness result, serialized to BENCH_pipeline.json.
// Single is the ExecuteCapsule loop (the path the switch runs; every
// capsule executes its compiled plan and drains its counters).
// SingleTelemetry repeats the Single measurement with the full telemetry
// registry attached (per-FID latency histograms, flight recorder), in
// chunks interleaved with Single's; TelemetryDelta is its overhead relative
// to Single, the median of the per-chunk paired ratios — the regression gate
// requires it to stay within 10%.
type PipelineBench struct {
	Tenants         int     `json:"tenants"`
	Ring            int     `json:"ring_per_tenant"`
	GoMaxProcs      int     `json:"gomaxprocs"`
	NumCPU          int     `json:"numcpu"`
	Single          Rate    `json:"single"`
	SingleTelemetry Rate    `json:"single_telemetry"`
	TelemetryDelta  float64 `json:"telemetry_delta_pct"`

	// Fabric is the leaf-spine end-to-end series (RunFabricBench): GET
	// round trips per wall second through a 2x1 fabric, with the heap
	// allocations per GET. Its Speedup field is the ratio to Single — well
	// below 1 by construction (a round trip simulates every hop), but stable
	// on a given build, so the gate can catch relay-path regressions
	// ratio-wise. Zero when the series was skipped.
	Fabric Rate `json:"fabric,omitempty"`

	// Defrag is the online-defragmentation series (RunDefragBench): a
	// virtual-time churn + adaptive-policy migration run, deterministic per
	// build.
	Defrag DefragStat `json:"defrag"`

	// Secapps is the security-app quality series (RunSecappsBench):
	// virtual-time deterministic detection, enforcement, and recirculation
	// accounting.
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
	// Interleave tenants round-robin so the executor sees a mixed stream.
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

// RunPipelineBench measures the ExecuteCapsule loop bare and with telemetry
// on two identically built systems, then the fabric, defrag and secapps
// series.
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

	res := &PipelineBench{
		Tenants:    cfg.Tenants,
		Ring:       cfg.Ring,
		GoMaxProcs: gort.GOMAXPROCS(0),
		NumCPU:     gort.NumCPU(),
	}

	// One ExecResult, one sink, one executor per system — the switch's
	// shape — for a bare system and one with a telemetry registry attached,
	// so the instrumentation overhead is a first-class number. The two run
	// in interleaved chunks (alternating which goes first) and the overhead
	// is the median of the per-round paired ratios: host noise that drifts
	// over a run lands on both sides of every pair.
	prepare := func(withTelemetry bool) (func(n int), error) {
		sys, ring, err := buildPipelineWorkload(cfg)
		if err != nil {
			return nil, err
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
		next := 0
		run := func(n int) {
			for i := 0; i < n; i++ {
				sys.RT.ExecuteCapsule(ring[next], er, sink)
				if next++; next == len(ring) {
					next = 0
				}
			}
		}
		// Warm the scratch buffers (and the plan cache) out of the window.
		run(len(ring))
		return run, nil
	}
	bare, err := prepare(false)
	if err != nil {
		return nil, err
	}
	tel, err := prepare(true)
	if err != nil {
		return nil, err
	}
	chunk := cfg.Packets / pipelineRounds
	if chunk < 1 {
		chunk = 1
	}
	timed := func(run func(int)) time.Duration {
		start := time.Now()
		run(chunk)
		return time.Since(start)
	}
	var bareT, telT time.Duration
	ratios := make([]float64, 0, pipelineRounds)
	for r := 0; r < pipelineRounds; r++ {
		var b, t time.Duration
		if r%2 == 0 {
			b, t = timed(bare), timed(tel)
		} else {
			t, b = timed(tel), timed(bare)
		}
		bareT += b
		telT += t
		ratios = append(ratios, float64(t)/float64(b))
	}
	n := chunk * pipelineRounds
	rate := func(el time.Duration) Rate {
		return Rate{Packets: n, Seconds: el.Seconds(), PPS: float64(n) / el.Seconds(), Speedup: 1}
	}
	res.Single, res.SingleTelemetry = rate(bareT), rate(telT)
	res.SingleTelemetry.Speedup = res.SingleTelemetry.PPS / res.Single.PPS
	res.TelemetryDelta = (stats.Percentile(ratios, 50) - 1) * 100
	// One-sided budget: attaching telemetry cannot make the path faster, so
	// a negative delta is host noise, not a property of the build. Clamp at
	// zero so the committed baseline and the ≤10% gate both read "within
	// noise" instead of a spurious negative overhead.
	if res.TelemetryDelta < 0 {
		res.TelemetryDelta = 0
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
