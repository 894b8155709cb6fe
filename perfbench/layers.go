package main

import "fmt"

// Per-layer attribution of the traced run.
//
// The traced run times the benchmark's own calls: every Engine.Step, and
// inside steps the op-issuing calls (client send). The replay twin prices
// one call of each endpoint on the frames the workload produced; the
// program's counters say how many such calls one op makes. netsim's self
// time is what the steps spent beyond those endpoint costs, and what the
// steps do not cover at all is left unattributed.

type layerInput struct {
	ops                  int
	untracedNs, tracedNs float64 // wall-clock ns per op
	tr                   *tracer
	cost                 spanCost
	cnt                  layerCounts
	rpl                  *replayer
	alloc                *allocStats
	fragmentation        float64
	spanFile             string
	keptSpans            int
}

// classCost is one switch frame class's per-call replay costs.
type classCost struct {
	recv, recvA, dec, decA, chk, chkA, enc, encA float64
}

func costOf(fc frameCost) classCost {
	var c classCost
	c.recv, c.recvA = fc.receive.perCall()
	c.dec, c.decA = fc.decode.perCall()
	c.chk, c.chkA = fc.check.perCall()
	c.enc, c.encA = fc.enc.perCall()
	return c
}

func layerMetrics(rp *report, in layerInput) {
	ops := float64(in.ops)
	c := in.cnt
	programs := float64(c.checked)
	frames := float64(c.framesIn)

	// Frames per class, from the counters of the traced run.
	var n [numClasses]float64
	n[classReturned] = float64(c.returned)
	n[classRelayed] = float64(c.relayed)
	n[classProgOther] = clamp0(programs - n[classReturned] - n[classRelayed])
	n[classPlain] = clamp0(frames - programs)

	// Per-call costs per class; a class the replay never sampled takes the
	// pooled cost of every sampled frame.
	var pooled frameCost
	for _, fc := range in.rpl.sw {
		pooled.frames += fc.frames
		pooled.receive.merge(fc.receive)
		pooled.decode.merge(fc.decode)
		pooled.check.merge(fc.check)
		pooled.enc.merge(fc.enc)
	}
	var cost [numClasses]classCost
	for cls := range cost {
		fc := in.rpl.sw[cls]
		if fc.frames == 0 {
			fc = pooled
		}
		cost[cls] = costOf(fc)
		rp.printf("replay class %-13s frames in run %10.0f  sampled %5d  receive %8.1f ns %6.2f allocs",
			classNames[cls], n[cls], in.rpl.sw[cls].frames, cost[cls].recv, cost[cls].recvA)
	}
	var sw, swA, dec, decA, enc, encA, chk, chkA, exec, execA float64
	for cls, k := range n {
		cc := cost[cls]
		sw += k * cc.recv
		swA += k * cc.recvA
		dec += k * cc.dec
		decA += k * cc.decA
		enc += k * cc.enc
		encA += k * cc.encA
		if cls != classPlain {
			chk += k * cc.chk
			chkA += k * cc.chkA
			exec += k * (cc.recv - cc.dec - cc.chk - cc.enc)
			execA += k * (cc.recvA - cc.decA - cc.chkA - cc.encA)
		}
	}
	clNs, clA := in.rpl.cl.perCall()
	srvNs, _ := in.rpl.srv.perCall()
	clTotal := float64(c.clientRx) * clNs
	srvTotal := float64(c.serverReqs) * srvNs

	// Take the tracer's own cost out of the span totals: every span's
	// duration holds the inside part of its own cost, and a step also holds
	// the whole cost of the op-call spans nested in it.
	tr := in.tr
	steps := float64(tr.n[spanStep])
	calls := float64(tr.opCalls())
	stepNs := float64(tr.ns[spanStep]) - steps*in.cost.stepInside - calls*in.cost.callFull
	sendNs := float64(tr.opCallNs()) - calls*in.cost.callInside
	// The layers partition the steps' time; netsim's self time is the part
	// no other layer accounts for.
	selfNs := stepNs - sendNs - sw - clTotal - srvTotal - in.alloc.inRunNs

	base := func(what string, k float64) string { return fmt.Sprintf("%s; base %.0f", what, k) }
	m := func(name string, v float64, unit, note string) { rp.metric(name, v, unit, note, true) }

	m("packet.decode_ns", div(dec, frames), "ns", base("DecodeFrameCached per switch frame, replay", frames))
	m("packet.decode_allocs", div(decA, frames), "count", base("per switch frame, replay", frames))
	m("packet.encode_ns", div(enc, frames), "ns", base("EncodeFrame per switch frame, replay", frames))
	m("packet.encode_allocs", div(encA, frames), "count", base("per switch frame, replay", frames))
	m("packet.progcache_hit_ratio", div(float64(c.pcHits), float64(c.pcHits+c.pcMisses)), "ratio",
		base("ProgCache hits over lookups, traced run", float64(c.pcHits+c.pcMisses)))
	m("guard.check_ns", div(chk, programs), "ns", base("CheckProgram per checked capsule, replay", programs))
	m("guard.checked_per_op", div(programs, ops), "count", base("Guard.Checked over ops", ops))
	m("runtime.exec_ns", div(exec, programs), "ns", base("Switch.Receive - decode - guard - encode per executed capsule", programs))
	m("runtime.exec_allocs", div(execA, programs), "count", base("same subtraction, allocations", programs))
	m("switchd.receive_ns", div(sw, frames), "ns", base("Switch.Receive per frame, class-weighted replay", frames))
	m("switchd.receive_allocs", div(swA, frames), "count", base("per frame, class-weighted replay", frames))
	m("switchd.frames_in_per_op", div(frames, ops), "count", base("FramesIn over ops", ops))
	m("switchd.relayed_per_op", div(float64(c.relayed), ops), "count", base("RelayedPrograms over ops", ops))
	m("netsim.events_per_op", div(float64(tr.n[spanStep]), ops), "count", base("Engine.Step calls over ops", ops))
	m("netsim.frames_per_op", div(float64(c.portRx), ops), "count", base("Port.RxFrames over ops", ops))
	m("netsim.self_ns_per_op", div(selfNs, ops), "ns", base("Step time not covered by endpoint costs, per op", ops))
	m("client.send_ns_per_op", div(sendNs, ops), "ns", base("time in Get/Put/RequestAllocation/Release per op", ops))
	m("client.receive_ns", clNs, "ns", base("Client.Receive per call, replay", float64(in.rpl.cl.calls)))
	m("client.receive_allocs", clA, "count", base("per call, replay", float64(in.rpl.cl.calls)))
	m("client.request_alloc_us", div(float64(tr.ns[spanRequest]), float64(tr.n[spanRequest]))/1e3, "us",
		base("RequestAllocation per call, traced run", float64(tr.n[spanRequest])))
	m("apps.kvserver_receive_ns", srvNs, "ns", base("KVServer.Receive per call, replay", float64(in.rpl.srv.calls)))
	m("apps.server_reqs_per_op", div(float64(c.serverReqs), ops), "count", base("Requests+Puts over ops", ops))
	st := in.alloc
	m("alloc.allocate_us_p50", percentile(st.allocateUS, 0.5), "us", base("Allocate replayed on the run's constraint sequence, calls", float64(len(st.allocateUS))))
	m("alloc.allocate_us_p99", percentile(st.allocateUS, 0.99), "us", base("calls", float64(len(st.allocateUS))))
	m("alloc.release_us_p50", percentile(st.releaseUS, 0.5), "us", base("Release replayed, calls", float64(len(st.releaseUS))))
	m("alloc.mutants_per_admit", div(float64(st.mutants), float64(st.admits)), "count", base("mutants searched per admission", float64(st.admits)))
	m("alloc.reallocated_per_admit", div(float64(st.reallocated), float64(st.granted)), "count", base("tenants reallocated per granted admission", float64(st.granted)))
	m("alloc.fragmentation", in.fragmentation, "ratio", "free blocks outside each stage's largest hole, end of run")
	m("switchd.table_ops_per_admit", div(float64(st.tableOp), float64(st.granted)), "count", base("table operations per granted admission", float64(st.granted)))
	m("switchd.snapshot_wait_ms_p99", percentile(st.snapshotWaitMS, 0.99), "ms", base("virtual snapshot wait per granted admission", float64(len(st.snapshotWaitMS))))
	m("trace.unattributed_ns_per_op", in.untracedNs-div(stepNs, ops), "ns",
		fmt.Sprintf("untraced %.1f ns/op minus the layers' %.1f ns/op", in.untracedNs, div(stepNs, ops)))
	m("trace.overhead_pct", 100*(in.tracedNs/in.untracedNs-1), "%",
		fmt.Sprintf("traced %.1f ns/op vs untraced %.1f ns/op; span costs subtracted from the layers: %.1f ns inside a step span, %.1f ns per op-call span (%.1f inside it)",
			in.tracedNs, in.untracedNs, in.cost.stepInside, in.cost.callFull, in.cost.callInside))

	rp.printf("layer breakdown, wall-clock ns per op (untraced total %.1f):", in.untracedNs)
	for _, l := range []struct {
		name string
		ns   float64
	}{
		{"client send (fabric/client)", sendNs},
		{"switchd receive (packet+guard+runtime+rmt)", sw},
		{"client receive (client/fabric)", clTotal},
		{"kv server receive (apps)", srvTotal},
		{"allocator (alloc)", in.alloc.inRunNs},
		{"netsim self (engine + controller protocol)", selfNs},
	} {
		rp.printf("  %-44s %10.1f  %5.1f%%", l.name, l.ns/ops, 100*l.ns/ops/in.untracedNs)
	}
	rp.printf("  %-44s %10.1f  %5.1f%%", "unattributed", in.untracedNs-stepNs/ops, 100*(1-stepNs/ops/in.untracedNs))
	rp.printf("spans: %d kept of %d in %s", in.keptSpans, in.keptSpans+int(tr.dropped), in.spanFile)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func clamp0(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}
