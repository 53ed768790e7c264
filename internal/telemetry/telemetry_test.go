package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", LatencyBucketsMs)
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	var lh *LocalHistogram
	lh.Observe(2)
	if s := lh.Snapshot(); s.Count != 0 {
		t.Fatalf("nil local histogram count %d", s.Count)
	}
	r.RegisterCollector(func(*Snapshot) { t.Fatal("collector on nil registry ran") })
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := New()
	c := r.Counter("frames")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter %d, want 10", c.Value())
	}
	if again := r.Counter("frames"); again != c {
		t.Fatal("counter not interned by name")
	}
	g := r.Gauge("devices")
	g.Set(64)
	g.Set(32.5)
	if g.Value() != 32.5 {
		t.Fatalf("gauge %g", g.Value())
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound semantics:
// a value exactly on a bound lands in that bound's bucket, just above it
// in the next, and above the last bound in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{1, 2, 5}
	for _, h := range []interface {
		Observe(float64)
		Snapshot() HistogramSnapshot
	}{
		newHistogram(bounds),
		NewLocalHistogram(bounds),
	} {
		h.Observe(0)                    // bucket 0 (<= 1)
		h.Observe(1)                    // bucket 0, exactly on the bound
		h.Observe(math.Nextafter(1, 2)) // bucket 1
		h.Observe(2)                    // bucket 1
		h.Observe(5)                    // bucket 2
		h.Observe(5.0001)               // overflow
		h.Observe(1e9)                  // overflow
		s := h.Snapshot()
		want := []uint64{2, 2, 1, 2}
		for i, w := range want {
			if s.Counts[i] != w {
				t.Fatalf("%T bucket %d = %d, want %d (counts %v)", h, i, s.Counts[i], w, s.Counts)
			}
		}
		if s.Count != 7 {
			t.Fatalf("count %d, want 7", s.Count)
		}
	}
}

func TestHistogramSum(t *testing.T) {
	h := newHistogram([]float64{10})
	h.Observe(1.5)
	h.Observe(2.25)
	if s := h.Snapshot(); s.Sum != 3.75 {
		t.Fatalf("sum %g, want 3.75", s.Sum)
	}
}

// TestQuantileEstimate checks linear interpolation inside a bucket against
// hand-computed values.
func TestQuantileEstimate(t *testing.T) {
	h := NewLocalHistogram([]float64{10, 20, 30})
	// 10 observations uniform in (10,20]: all land in bucket 1.
	for i := 0; i < 10; i++ {
		h.Observe(15)
	}
	s := h.Snapshot()
	// rank(0.5) = 5 of 10; bucket spans 10..20 → 10 + 10*(5/10) = 15.
	if got := s.Quantile(0.5); got != 15 {
		t.Fatalf("p50 %g, want 15", got)
	}
	// rank(1.0) = 10 → upper edge of the bucket.
	if got := s.Quantile(1); got != 20 {
		t.Fatalf("p100 %g, want 20", got)
	}

	// Split 5 low / 5 high: median sits at the low bucket's upper edge.
	h2 := NewLocalHistogram([]float64{10, 20})
	for i := 0; i < 5; i++ {
		h2.Observe(5)  // bucket 0: 0..10
		h2.Observe(15) // bucket 1: 10..20
	}
	s2 := h2.Snapshot()
	if got := s2.Quantile(0.5); got != 10 {
		t.Fatalf("p50 %g, want 10", got)
	}
	// p90: rank 9 → 4th of 5 in bucket 1 → 10 + 10*(4/5) = 18.
	if got := s2.Quantile(0.9); got != 18 {
		t.Fatalf("p90 %g, want 18", got)
	}
}

func TestQuantileOverflowClampsToLastBound(t *testing.T) {
	h := NewLocalHistogram([]float64{1, 2})
	h.Observe(100)
	h.Observe(200)
	if got := h.Snapshot().Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile %g, want clamp to 2", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile %g, want 0", got)
	}
}

func TestSnapshotMergesCollectorHistograms(t *testing.T) {
	r := New()
	a := NewLocalHistogram([]float64{10, 20})
	b := NewLocalHistogram([]float64{10, 20})
	for i := 0; i < 3; i++ {
		a.Observe(5)
		b.Observe(15)
	}
	r.RegisterCollector(func(s *Snapshot) {
		s.AddCounter("c_total", 3)
		s.MergeHistogram("lat", a.Snapshot())
	})
	r.RegisterCollector(func(s *Snapshot) {
		s.AddCounter("c_total", 4)
		s.MergeHistogram("lat", b.Snapshot())
	})
	s := r.Snapshot()
	if s.Counters["c_total"] != 7 {
		t.Fatalf("merged counter %d, want 7", s.Counters["c_total"])
	}
	h, ok := s.Histogram("lat")
	if !ok || h.Count != 6 {
		t.Fatalf("merged histogram: %+v", h)
	}
	if h.Counts[0] != 3 || h.Counts[1] != 3 {
		t.Fatalf("merged buckets %v", h.Counts)
	}
	if h.P50 == 0 {
		t.Fatal("finalize did not compute quantiles")
	}
	// Mismatched shapes must not corrupt the series.
	s.MergeHistogram("lat", NewLocalHistogram([]float64{1}).Snapshot())
	if h2, _ := s.Histogram("lat"); h2.Count != 6 {
		t.Fatalf("shape-mismatched merge altered the series: %+v", h2)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("frames_total").Add(42)
	r.Gauge("devices").Set(8)
	r.Histogram("lat_ms", []float64{1, 10}).Observe(3)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["frames_total"] != 42 || back.Gauges["devices"] != 8 {
		t.Fatalf("round trip: %+v", back)
	}
	if h := back.Histograms["lat_ms"]; h.Count != 1 || h.Counts[1] != 1 {
		t.Fatalf("round trip histogram: %+v", h)
	}
}

func TestWritePrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("rf_frames_sent_total").Add(5)
	r.Gauge("hub_devices").Set(2)
	h := r.Histogram(DeviceLatencyName(7), []float64{1, 10})
	h.Observe(0.5)
	h.Observe(4)
	h.Observe(99)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE rf_frames_sent_total counter",
		"rf_frames_sent_total 5",
		"# TYPE hub_devices gauge",
		"hub_devices 2",
		"# TYPE hub_e2e_latency_ms histogram",
		`hub_e2e_latency_ms_bucket{device="7",le="1"} 1`,
		`hub_e2e_latency_ms_bucket{device="7",le="10"} 2`,
		`hub_e2e_latency_ms_bucket{device="7",le="+Inf"} 3`,
		`hub_e2e_latency_ms_count{device="7"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// A labelled family is written under one TYPE line with its series
// together, even when a sibling name extends the base with '_' (which
// sorts between `name` and `name{...}` as a whole string).
func TestWritePrometheusGroupsFamilies(t *testing.T) {
	snap := NewSnapshot()
	snap.AddCounter(ShardName(MetricHubDecoded, 1), 3)
	snap.AddCounter(MetricHubDecoded, 5)
	snap.AddCounter(MetricHubDecoded+"_extra", 7)
	snap.AddCounter(ShardName(MetricHubDecoded, 0), 2)
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE hub_frames_decoded_total counter
hub_frames_decoded_total 5
hub_frames_decoded_total{shard="0"} 2
hub_frames_decoded_total{shard="1"} 3
# TYPE hub_frames_decoded_total_extra counter
hub_frames_decoded_total_extra 7
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestReporterEmitsPeriodicallyAndOnStop(t *testing.T) {
	r := New()
	r.Counter("ticks_total").Inc()
	got := make(chan *Snapshot, 64)
	rep := StartReporter(r, time.Millisecond, func(s *Snapshot) { got <- s })
	deadline := time.After(2 * time.Second)
	select {
	case <-got:
	case <-deadline:
		t.Fatal("no periodic snapshot within 2s")
	}
	rep.Stop()
	rep.Stop() // idempotent
	// The final emission on Stop is guaranteed even without ticks.
	rep2 := StartReporter(r, time.Hour, func(s *Snapshot) { got <- s })
	rep2.Stop()
	select {
	case s := <-got:
		if s.Counters["ticks_total"] != 1 {
			t.Fatalf("final snapshot: %+v", s.Counters)
		}
	default:
		t.Fatal("Stop did not emit a final snapshot")
	}
	if StartReporter(nil, time.Second, func(*Snapshot) {}) != nil {
		t.Fatal("nil registry must yield nil reporter")
	}
	var nilRep *Reporter
	nilRep.Stop()
}
