package runtime

import (
	"testing"

	"activermt/internal/packet"
	"activermt/internal/telemetry"
)

// execFast runs one capsule through the packet path and returns its
// outputs; counter state is current when it returns.
func execFast(r *Runtime, a *packet.Active, res *ExecResult, sink *ExecSink) []*Output {
	r.ExecuteCapsule(a, res, sink)
	return res.Outputs
}

// compareOutputs asserts the observable wire content of two output sets is
// identical: flags, args, surviving instructions, and routing verdicts.
func compareOutputs(t *testing.T, step string, want, got []*Output) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d outputs vs %d", step, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Dropped != g.Dropped || w.ToSender != g.ToSender || w.DstSet != g.DstSet ||
			w.Dst != g.Dst || w.IsClone != g.IsClone || w.Executed != g.Executed ||
			w.Latency != g.Latency || w.Passes != g.Passes {
			t.Fatalf("%s output %d: envelope mismatch\nwant %+v\ngot  %+v", step, i, w, g)
		}
		wa, ga := w.Active, g.Active
		if wa.Header.Flags != ga.Header.Flags || wa.Header.FID != ga.Header.FID {
			t.Fatalf("%s output %d: header mismatch: %+v vs %+v", step, i, wa.Header, ga.Header)
		}
		if wa.Args != ga.Args {
			t.Fatalf("%s output %d: args %v vs %v", step, i, wa.Args, ga.Args)
		}
		wp, gp := wa.Program, ga.Program
		if (wp == nil) != (gp == nil) {
			t.Fatalf("%s output %d: program nil mismatch", step, i)
		}
		if wp != nil {
			if len(wp.Instrs) != len(gp.Instrs) {
				t.Fatalf("%s output %d: %d instrs vs %d", step, i, len(wp.Instrs), len(gp.Instrs))
			}
			for j := range wp.Instrs {
				if wp.Instrs[j] != gp.Instrs[j] {
					t.Fatalf("%s output %d instr %d: %v vs %v", step, i, j, wp.Instrs[j], gp.Instrs[j])
				}
			}
		}
	}
}

// TestExecuteCapsuleMatchesReference drives the packet path and the
// reference executor (differential_test.go) through the same packet
// sequence on two identically configured runtimes and requires identical
// wire outputs, runtime and device counters, and register state: hit/miss
// queries, a protection fault, unadmitted passthrough, quarantine drop, and
// revoked drop.
func TestExecuteCapsuleMatchesReference(t *testing.T) {
	ra := testRuntime(t)
	rb := testRuntime(t)
	installCacheGrant(t, ra, 1, 0, 1024)
	installCacheGrant(t, rb, 1, 0, 1024)
	ref := newRefEnv(ra)

	res := NewExecResult()
	sink := rb.NewExecSink()
	step := func(name string, fid uint16, flags uint16, args [4]uint32) {
		t.Helper()
		a := progPacket(fid, cacheQuery.Clone(), args)
		b := progPacket(fid, cacheQuery, args)
		a.Header.Flags |= flags
		b.Header.Flags |= flags
		compareOutputs(t, name, ref.execute(a), execFast(rb, b, res, sink))
	}

	step("miss", 1, packet.FlagPreload, [4]uint32{7, 9, 100, 0})
	step("repeat", 1, packet.FlagPreload, [4]uint32{7, 9, 100, 0})
	step("fault", 1, packet.FlagPreload, [4]uint32{1, 2, 4000, 0}) // outside [0,1024)
	step("unadmitted", 9, 0, [4]uint32{})

	ra.Deactivate(1)
	rb.Deactivate(1)
	step("quarantined", 1, packet.FlagPreload, [4]uint32{1, 2, 100, 0})
	step("memsync", 1, packet.FlagPreload|packet.FlagMemSync, [4]uint32{1, 2, 100, 0})
	ra.Reactivate(1)
	rb.Reactivate(1)
	step("reactivated", 1, packet.FlagPreload, [4]uint32{7, 9, 100, 0})

	ra.RemoveGrant(1)
	rb.RemoveGrant(1)
	step("revoked", 1, packet.FlagPreload, [4]uint32{1, 2, 100, 0})

	ref.checkAgainst(t, rb)
}

// TestExecuteCapsuleZeroAlloc is the allocation gate for the packet hot
// path: once scratch buffers are warm, ExecuteCapsule must not allocate —
// on the clean path and on the fault path (buffered events reuse their
// capacity after delivery). The gate holds with telemetry both disabled and
// enabled: sharded counter adds, histogram observes, and flight-ring
// records are all allocation-free by construction.
func TestExecuteCapsuleZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name      string
		telemetry bool
	}{
		{name: "bare", telemetry: false},
		{name: "telemetry", telemetry: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := testRuntime(t)
			if tc.telemetry {
				r.AttachTelemetry(telemetry.NewRegistry())
			}
			installCacheGrant(t, r, 1, 0, 1024)
			res := NewExecResult()
			sink := r.NewExecSink()

			clean := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
			clean.Header.Flags |= packet.FlagPreload
			faulty := progPacket(1, cacheQuery, [4]uint32{7, 9, 4000, 0})
			faulty.Header.Flags |= packet.FlagPreload

			for i := 0; i < 64; i++ { // warm scratch buffers and event capacity
				r.ExecuteCapsule(clean, res, sink)
				r.ExecuteCapsule(faulty, res, sink)
			}
			if avg := testing.AllocsPerRun(200, func() {
				r.ExecuteCapsule(clean, res, sink)
			}); avg != 0 {
				t.Fatalf("clean path allocates %.2f/op, want 0", avg)
			}
			if avg := testing.AllocsPerRun(200, func() {
				r.ExecuteCapsule(faulty, res, sink)
			}); avg != 0 {
				t.Fatalf("fault path allocates %.2f/op, want 0", avg)
			}
			if tc.telemetry && (sink.fr == nil || sink.fr.Recorded() == 0) {
				t.Fatal("telemetry enabled but the sink's flight recorder saw no samples")
			}
		})
	}
}
