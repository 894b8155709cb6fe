package experiments

import "testing"

// TestTelemetryDeltaNonNegative: the telemetry overhead is a one-sided
// budget; when the instrumented run is noise-faster than the baseline the
// recorded delta must clamp to zero, never go negative.
func TestTelemetryDeltaNonNegative(t *testing.T) {
	res, err := RunPipelineBench(PipelineBenchConfig{
		Tenants: 2, Packets: 10_000, Ring: 16, FabricPackets: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TelemetryDelta < 0 {
		t.Fatalf("telemetry_delta_pct = %v, want >= 0 (one-sided budget)", res.TelemetryDelta)
	}
}
