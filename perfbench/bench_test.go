package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// The tests run every workload on a small schedule.
const testScale = 0.02

func testWorkloads(t *testing.T) []workloadSpec {
	t.Helper()
	return workloads(testScale)
}

func runOnce(t *testing.T, w workloadSpec, seed int64) *outcome {
	t.Helper()
	sys, err := w.build(seed, nil)
	if err != nil {
		t.Fatalf("%s set-up: %v", w.name, err)
	}
	return sys.run(nil)
}

// Two runs with one seed give identical virtual-time results, counts and
// ratios; another seed changes them.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range testWorkloads(t) {
		a, b := runOnce(t, w, 7), runOnce(t, w, 7)
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s: same seed, different results:\n  %s\n  %s", w.name, a.fingerprint(), b.fingerprint())
		}
		if c := runOnce(t, w, 8); c.fingerprint() == a.fingerprint() {
			t.Errorf("%s: seeds 7 and 8 gave identical results %s", w.name, a.fingerprint())
		}
	}
}

// The workloads listed in BENCHMARK.json complete every op correctly.
func TestListedWorkloadsCorrect(t *testing.T) {
	listed := map[string]bool{}
	for _, w := range readBenchmarkJSON(t).Workloads {
		listed[w.Name] = true
	}
	for _, w := range testWorkloads(t) {
		if !listed[w.name] {
			continue
		}
		o := runOnce(t, w, 3)
		if o.failed() != 0 || o.lateness != 0 {
			t.Errorf("%s: %d failed, lateness %v: %v", w.name, o.failed(), o.lateness, o.notes)
		}
	}
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The traced run emits every per-layer metric BENCHMARK.json declares, with
// its unit, reports the unattributed remainder, and every replayed frame
// takes the path it took in the run.
func TestLayerAccounting(t *testing.T) {
	want := readBenchmarkJSON(t).PerLayer
	for _, w := range testWorkloads(t) {
		rp := &report{metrics: map[string]jsonMetric{}, correct: true}
		if _, _, err := tracedRun(w, 5, 100*time.Millisecond, rp, t.TempDir()); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, e := range rp.errs {
			if strings.HasPrefix(e, "replay") || strings.HasPrefix(e, "alloc replay") {
				t.Errorf("%s: %s", w.name, e)
			}
		}
		if len(rp.metrics) != len(want) {
			t.Errorf("%s: traced run emits %d metrics, BENCHMARK.json declares %d: %v", w.name, len(rp.metrics), len(want), sortedKeys(rp.metrics))
		}
		for _, m := range want {
			got, ok := rp.metrics[m.Name]
			if !ok {
				t.Errorf("%s: per-layer metric %s not emitted", w.name, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
			}
		}
		if _, ok := rp.metrics["trace.unattributed_ns_per_op"]; !ok {
			t.Errorf("%s: unattributed time not reported", w.name)
		}
	}
}

// The untraced run emits every end-to-end metric BENCHMARK.json declares.
func TestEndToEndMetrics(t *testing.T) {
	want := readBenchmarkJSON(t).EndToEnd
	w := testWorkloads(t)[0]
	rp := &report{metrics: map[string]jsonMetric{}, correct: true}
	if _, _, err := measuredRun(w, 2, 100*time.Millisecond, rp); err != nil {
		t.Fatal(err)
	}
	if len(rp.metrics) != len(want) {
		t.Errorf("emits %v, BENCHMARK.json declares %d metrics", sortedKeys(rp.metrics), len(want))
	}
	for _, m := range want {
		if got, ok := rp.metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value == 0 {
			t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %q and a non-zero value", m.Name, got, ok, m.Unit)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func sortedKeys(m map[string]jsonMetric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
