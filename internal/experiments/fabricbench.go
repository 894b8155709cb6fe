package experiments

import (
	"fmt"
	gort "runtime"
	"time"

	"activermt/internal/apps"
	"activermt/internal/fabric"
)

// The fabric throughput series: end-to-end capsule round trips per wall
// second through a small leaf-spine fabric (2 leaves, 1 spine) running the
// coherent replicated cache. Each GET is a full multi-hop traversal —
// ingress leaf execution, relay across the spine and far devices, response
// back to the issuing host — so the number prices the whole fabric path
// (switch relay checks, per-hop re-execution, event scheduling), not just
// one device's execute loop. It rides in BENCH_pipeline.json next to the
// single-switch series; the gate tracks its ratio to the single-capsule
// series, so a relay-path slowdown on the shared switch hot path shows up
// even when raw pps moves with the host, and caps its allocations per GET.

// fabricBenchFlight is the number of GETs kept in flight per drain cycle.
// Responses arrive within a few RTTs of virtual time; batching amortizes
// the drain loop without reordering the per-leaf streams.
const fabricBenchFlight = 64

// RunFabricBench measures `packets` cache GETs through a 2x1 fabric and
// returns the rate, allocations per GET and switch count.
func RunFabricBench(packets int) (Rate, error) {
	f, err := fabric.New(fabric.DefaultConfig(2, 1))
	if err != nil {
		return Rate{}, err
	}
	fc := fabric.NewController(f)
	srvMAC, srvIP := f.NewHostID()
	srv := apps.NewKVServer(f.Eng, srvMAC, srvIP)
	sp, err := f.AttachHost(1, srv, srvMAC)
	if err != nil {
		return Rate{}, err
	}
	srv.Attach(sp)

	cc, err := fabric.NewCoherentCache(fc, 1, []int{0, 1}, srvMAC, srvIP)
	if err != nil {
		return Rate{}, err
	}

	const nkeys = 1024
	keys := make([][2]uint32, nkeys)
	objs := make([]apps.KVMsg, nkeys)
	for i := range keys {
		k0, k1, v := uint32(i)*2654435761, uint32(i)*2246822519+7, uint32(0xC0DE+i)
		keys[i] = [2]uint32{k0, k1}
		objs[i] = apps.KVMsg{Key0: k0, Key1: k1, Value: v}
		srv.Store[apps.KeyOf(k0, k1)] = v
	}
	if err := cc.Warm(0, objs); err != nil {
		return Rate{}, err
	}
	f.RunFor(100 * time.Millisecond)

	var done int
	cc.OnResponse = func(int, uint32, uint32, bool) { done++ }
	run := func(n int) error {
		for issued := 0; issued < n; {
			flight := fabricBenchFlight
			if n-issued < flight {
				flight = n - issued
			}
			for i := 0; i < flight; i++ {
				k := keys[issued%nkeys]
				if _, err := cc.Get(issued%2, k[0], k[1]); err != nil {
					return err
				}
				issued++
			}
			for f.Eng.Pending() > 0 {
				f.Eng.Step()
			}
		}
		return nil
	}
	// Warm the program caches and scratch state out of the window.
	if err := run(2 * fabricBenchFlight); err != nil {
		return Rate{}, err
	}
	want := done + packets
	var m0, m1 gort.MemStats
	gort.ReadMemStats(&m0)
	start := time.Now()
	if err := run(packets); err != nil {
		return Rate{}, err
	}
	el := time.Since(start)
	gort.ReadMemStats(&m1)
	if done < want {
		return Rate{}, fmt.Errorf("fabric bench: %d of %d GETs unanswered", want-done, packets)
	}
	return Rate{
		Packets: packets,
		Seconds: el.Seconds(),
		PPS:     float64(packets) / el.Seconds(),
		Speedup: 1,

		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(packets),
		Switches:    len(f.Nodes()),
	}, nil
}
