package experiments

import "testing"

// TestFabricBenchSmoke runs a small fabric throughput measurement end to
// end: every GET must be answered and the rate must be positive. Keeps the
// benchdiff fabric series from bit-rotting between bench runs.
func TestFabricBenchSmoke(t *testing.T) {
	lr, err := RunFabricBench(500)
	if err != nil {
		t.Fatal(err)
	}
	if lr.PPS <= 0 {
		t.Fatalf("fabric bench rate %v", lr.PPS)
	}
	if lr.Switches != 3 {
		t.Fatalf("fabric bench ran on %d switches, want 3 (2 leaves + 1 spine)", lr.Switches)
	}
}
