package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter("x_total", "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 80000 {
		t.Fatalf("counter = %d, want 80000", got)
	}
}

func TestCounterZeroAlloc(t *testing.T) {
	c := NewCounter("x_total", "")
	g := NewGauge("g", "")
	h := NewHistogram("h", "")
	if avg := testing.AllocsPerRun(100, func() {
		c.Add(3)
		g.Set(7)
		h.Observe(123)
	}); avg != 0 {
		t.Fatalf("metric ops allocate %.2f/op, want 0", avg)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("lat_ns", "")
	h.Observe(0)   // bucket 0
	h.Observe(1)   // bucket 1
	h.Observe(2)   // bucket 2
	h.Observe(3)   // bucket 2
	h.Observe(900) // bucket 10 (512..1023)
	if h.Count() != 5 || h.Sum() != 906 {
		t.Fatalf("count/sum = %d/%d", h.Count(), h.Sum())
	}
	var ms MetricSnapshot
	h.collect(&ms)
	b := ms.Samples[0].Hist.Buckets
	if b[0] != 1 || b[1] != 1 || b[2] != 2 || b[10] != 1 {
		t.Fatalf("bucket layout wrong: %v", b[:12])
	}
	// Clamp: a huge value lands in the top bucket, not out of range.
	h.Observe(1 << 62)
	h.collect(&ms)
	if ms.Samples[1].Hist.Buckets[NumBuckets-1] != 1 {
		t.Fatal("overflow value not clamped into top bucket")
	}
}

func TestLevelHistogramTotalSumsChildren(t *testing.T) {
	reg := NewRegistry()
	vec := reg.NewLevelHistogramVec("lat_fid_ns", "", "fid", []uint64{2, 3, 900})
	reg.MustRegister(vec.Total("lat_ns", ""))
	vec.With("1").Observe(1)
	vec.With("1").Observe(2)
	vec.With("2").Observe(0)

	snap := reg.Snapshot()
	total := snap.Metrics[1]
	if total.Name != "lat_ns" || total.Type != "histogram" || len(total.Samples) != 1 {
		t.Fatalf("total metric = %+v", total)
	}
	hs := total.Samples[0].Hist
	if hs.Count != 3 || hs.Sum != 905 || hs.Buckets[2] != 2 || hs.Buckets[10] != 1 {
		t.Fatalf("total = count %d sum %d buckets %v, want the children's sum", hs.Count, hs.Sum, hs.Buckets[:12])
	}
}

func TestVecChildren(t *testing.T) {
	reg := NewRegistry()
	cv := reg.NewCounterVec("stage_exec_total", "", "stage")
	cv.With("0").Add(5)
	cv.With("1").Add(7)
	cv.With("0").Add(1)
	gv := reg.NewGaugeVec("tenant_blocks", "", "fid")
	gv.With("3").Set(12)

	snap := reg.Snapshot()
	if len(snap.Metrics) != 2 {
		t.Fatalf("%d metrics", len(snap.Metrics))
	}
	cs := snap.Metrics[0]
	if cs.Samples[0].Labels != `stage="0"` || cs.Samples[0].Value != 6 {
		t.Fatalf("child 0: %+v", cs.Samples[0])
	}
	if cs.Samples[1].Labels != `stage="1"` || cs.Samples[1].Value != 7 {
		t.Fatalf("child 1: %+v", cs.Samples[1])
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.NewCounter("dup", "")
}

// TestSnapshotNeverTorn hammers commits that move two gauges in lockstep
// while scrapers snapshot concurrently: every snapshot must observe the
// invariant a == b, i.e. no snapshot lands inside a commit window.
func TestSnapshotNeverTorn(t *testing.T) {
	reg := NewRegistry()
	a := reg.NewGauge("a", "")
	b := reg.NewGauge("b", "")

	stop := make(chan struct{})
	var committer sync.WaitGroup
	committer.Add(1)
	go func() {
		defer committer.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.BeginCommit()
			a.Set(i)
			b.Set(i)
			reg.EndCommit()
		}
	}()

	var scrapers sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 2000; i++ {
				snap := reg.Snapshot()
				if !snap.Consistent {
					t.Error("inconsistent snapshot")
					return
				}
				var va, vb float64
				for _, m := range snap.Metrics {
					switch m.Name {
					case "a":
						va = m.Samples[0].Value
					case "b":
						vb = m.Samples[0].Value
					}
				}
				if va != vb {
					t.Errorf("torn snapshot: a=%v b=%v", va, vb)
					return
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	committer.Wait()
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(2, 4, 1)
	for i := uint16(1); i <= 6; i++ {
		f.Record(FlightEntry{FID: i, Verdict: VerdictExecuted})
	}
	got := f.Entries()
	if len(got) != 4 {
		t.Fatalf("%d entries, want 4 (ring size)", len(got))
	}
	// Oldest-first: FIDs 3,4,5,6 with sequence numbers 3..6 and the executor id.
	for i, e := range got {
		if e.FID != uint16(3+i) || e.Seq != uint64(3+i) || e.Lane != 2 {
			t.Fatalf("entry %d: %+v", i, e)
		}
	}
	if f.Recorded() != 6 {
		t.Fatalf("recorded = %d", f.Recorded())
	}
}

func TestFlightSampling(t *testing.T) {
	f := NewFlightRecorder(0, 8, 4)
	hits := 0
	for i := 0; i < 32; i++ {
		if f.ShouldSample() {
			hits++
		}
	}
	if hits != 8 {
		t.Fatalf("sampled %d of 32 at period 4", hits)
	}
}

func TestFlightLiveness(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(0, 8, 1)
	reg.AttachFlight(f)
	reg.SetLiveness(func(fid uint16, epoch uint8) bool { return fid == 1 && epoch == 2 })
	f.Record(FlightEntry{FID: 1, Epoch: 2})
	f.Record(FlightEntry{FID: 1, Epoch: 1}) // stale epoch
	f.Record(FlightEntry{FID: 9, Epoch: 2}) // revoked tenant
	snap := reg.Snapshot()
	if len(snap.Flights) != 3 {
		t.Fatalf("%d flights", len(snap.Flights))
	}
	if !snap.Flights[0].Live || snap.Flights[1].Live || snap.Flights[2].Live {
		t.Fatalf("liveness wrong: %+v", snap.Flights)
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("pkts_total", "packets seen")
	c.Add(3)
	h := reg.NewHistogram("lat_ns", "latency")
	h.Observe(1)
	h.Observe(600)
	var sb strings.Builder
	if err := WritePrometheus(&sb, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP pkts_total packets seen",
		"# TYPE pkts_total counter",
		"pkts_total 3",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{le="1"} 1`,
		`lat_ns_bucket{le="1023"} 2`,
		`lat_ns_bucket{le="+Inf"} 2`,
		"lat_ns_sum 601",
		"lat_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("x_total", "").Add(9)
	f := NewFlightRecorder(0, 4, 1)
	reg.AttachFlight(f)
	f.Record(FlightEntry{FID: 7})
	mux := Handler(reg)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		return rec
	}
	if body := get("/metrics").Body.String(); !strings.Contains(body, "x_total 9") {
		t.Fatalf("/metrics: %s", body)
	}
	var snap Snapshot
	if err := json.Unmarshal(get("/metrics.json").Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if len(snap.Metrics) != 1 || snap.Metrics[0].Samples[0].Value != 9 {
		t.Fatalf("json snapshot: %+v", snap)
	}
	var fl Snapshot
	if err := json.Unmarshal(get("/flight").Body.Bytes(), &fl); err != nil {
		t.Fatalf("/flight: %v", err)
	}
	if len(fl.Flights) != 1 || fl.Flights[0].FID != 7 {
		t.Fatalf("flight snapshot: %+v", fl)
	}
	if body := get("/debug/pprof/cmdline").Body.String(); body == "" {
		t.Fatal("pprof not wired")
	}
}
