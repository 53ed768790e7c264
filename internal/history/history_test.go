package history

import (
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/telemetry"
)

// tickClock advances one interval per call, making every window's dt
// exactly the configured cadence.
func tickClock(step time.Duration) func() time.Time {
	t := time.UnixMilli(1_700_000_000_000)
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func newTestStore(t *testing.T, windows int) *Store {
	t.Helper()
	s, err := New(Config{
		Registry: telemetry.New(),
		Windows:  windows,
		Interval: time.Second,
		Now:      tickClock(time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func snap() *telemetry.Snapshot {
	return &telemetry.Snapshot{
		Counters: map[string]uint64{},
		Gauges:   map[string]float64{},
	}
}

func TestCounterWindowedRates(t *testing.T) {
	s := newTestStore(t, 8)
	for i, total := range []uint64{100, 150, 150, 400} {
		sn := snap()
		sn.Counters["hub_events_total"] = total
		s.Observe(sn)
		if got := s.Captured(); got != uint64(i+1) {
			t.Fatalf("captured %d after %d windows", got, i+1)
		}
	}
	res := s.Query(Query{})
	sd, ok := res.Series["hub_events_total"]
	if !ok || sd.Kind != "counter" {
		t.Fatalf("missing counter series: %+v", res.Series)
	}
	// First sight records rate 0 (no spike from pre-history), then the
	// per-second deltas.
	want := []float64{0, 50, 0, 250}
	if len(sd.Values) != len(want) {
		t.Fatalf("got %d windows, want %d", len(sd.Values), len(want))
	}
	for i, w := range want {
		if sd.Values[i] != w {
			t.Fatalf("window %d rate %g, want %g (all %v)", i, sd.Values[i], w, sd.Values)
		}
	}
}

func TestCounterRegressionRebaselines(t *testing.T) {
	s := newTestStore(t, 8)
	for _, total := range []uint64{100, 150, 30, 40} {
		sn := snap()
		sn.Counters["c"] = total
		s.Observe(sn)
	}
	vals := s.Query(Query{}).Series["c"].Values
	// The backwards step (registry swap) records 0, then deltas resume.
	want := []float64{0, 50, 0, 10}
	for i, w := range want {
		if vals[i] != w {
			t.Fatalf("window %d rate %g, want %g (all %v)", i, vals[i], w, vals)
		}
	}
}

func TestGaugeRepeatsLastValue(t *testing.T) {
	s := newTestStore(t, 8)
	sn := snap()
	sn.Gauges["sim_devices"] = 7
	s.Observe(sn)
	s.Observe(snap()) // gauge vanished: repeat last value
	sn = snap()
	sn.Gauges["sim_devices"] = 9
	s.Observe(sn)
	vals := s.Query(Query{}).Series["sim_devices"].Values
	want := []float64{7, 7, 9}
	for i, w := range want {
		if vals[i] != w {
			t.Fatalf("window %d gauge %g, want %g (all %v)", i, vals[i], w, vals)
		}
	}
}

func TestHistogramDeltaDigests(t *testing.T) {
	reg := telemetry.New()
	s, err := New(Config{Registry: reg, Windows: 8, Interval: time.Second, Now: tickClock(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("hub_e2e_latency_ms", []float64{1, 5, 20, 100})
	h.Observe(1)
	s.Sample() // first sight: empty digest, baseline latched
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	s.Sample()
	s.Sample() // no new observations: empty digest

	sd := s.Query(Query{}).Series["hub_e2e_latency_ms"]
	if sd.Kind != "histogram" {
		t.Fatalf("kind %q", sd.Kind)
	}
	if sd.Count[0] != 0 {
		t.Fatalf("first-sight digest count %g, want 0", sd.Count[0])
	}
	if sd.Count[1] != 100 {
		t.Fatalf("window 1 digest count %g, want 100", sd.Count[1])
	}
	// All 100 observations were 10ms: every quantile of the window's
	// delta lands in the bucket containing 10.
	if sd.P50[1] <= 0 || sd.P99[1] < sd.P50[1] || sd.Max[1] < sd.P99[1] {
		t.Fatalf("digest quantiles not ordered: p50=%g p99=%g max=%g", sd.P50[1], sd.P99[1], sd.Max[1])
	}
	if sd.Count[2] != 0 || sd.P99[2] != 0 {
		t.Fatalf("idle window digest not empty: count=%g p99=%g", sd.Count[2], sd.P99[2])
	}
}

// TestLateSeriesFirstWindow: a series first seen after the store's first
// window holds only what arrived since the previous sample, so its first
// window records the whole value — v/dt for a counter, the whole
// histogram for a digest — where a first-window series records 0.
func TestLateSeriesFirstWindow(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("early_total").Add(500)
	s, err := New(Config{Registry: reg, Windows: 8, Interval: time.Second, Now: tickClock(2 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	s.Sample()
	s.Sample()
	reg.Counter("late_total").Add(40)
	h := reg.Histogram("late_ms", []float64{1, 5, 20, 100})
	for i := 0; i < 10; i++ {
		h.Observe(10)
	}
	s.Sample() // window k = 2: both late series appear

	res := s.Query(Query{})
	if v := res.Series["early_total"].Values; v[0] != 0 {
		t.Fatalf("first-window counter rate %g, want 0 (baseline)", v[0])
	}
	if v := res.Series["late_total"].Values; len(v) != 3 || v[2] != 20 {
		t.Fatalf("late counter rates %v, want 40 over 2 s = 20 in window 2", v)
	}
	lat := res.Series["late_ms"]
	if len(lat.Count) != 3 || lat.Count[2] != 10 || lat.P50[2] <= 5 || lat.P50[2] > 20 {
		t.Fatalf("late histogram digest count=%v p50=%v, want all 10 observations in (5,20]", lat.Count, lat.P50)
	}
	if p, ok := s.Latest("late_total"); !ok || p.Rate != 20 || p.Value != 40 {
		t.Fatalf("Latest(late_total) = %+v, %v", p, ok)
	}
	if p, ok := s.Latest("late_ms"); !ok || p.Digest.Count != 10 {
		t.Fatalf("Latest(late_ms) = %+v, %v", p, ok)
	}
}

// TestHistogramWindowDelta pins the digest delta: a window holds just the
// bucket counts added since the previous sample, and a histogram whose
// counts went backwards (registry swapped) records an empty window and
// rebaselines rather than inventing negative buckets.
func TestHistogramWindowDelta(t *testing.T) {
	s := newTestStore(t, 8)
	h := telemetry.NewLocalHistogram([]float64{1, 2, 4})
	window := func() Digest {
		sn := snap()
		sn.MergeHistogram("h", h.Snapshot())
		s.Observe(sn)
		p, _ := s.Latest("h")
		return p.Digest
	}
	h.Observe(1)
	window() // baseline
	h.Observe(3)
	h.Observe(3)
	if d := window(); d.Count != 2 || d.P50 <= 2 || d.Max > 4 {
		t.Fatalf("delta digest %+v, want both observations in (2,4]", d)
	}
	h = telemetry.NewLocalHistogram([]float64{1, 2, 4})
	h.Observe(1)
	if d := window(); d != (Digest{}) {
		t.Fatalf("regressed histogram recorded %+v, want an empty window", d)
	}
	h.Observe(4)
	if d := window(); d.Count != 1 {
		t.Fatalf("post-regression digest %+v, want the one new observation", d)
	}
}

// TestOnWindowGap: the listener sees each window's index, timestamp and
// measured gap — 0 at the first window and under a frozen clock, where the
// store's own rates fall back to the nominal interval.
func TestOnWindowGap(t *testing.T) {
	at := time.UnixMilli(1_700_000_000_000)
	step := time.Duration(0)
	s, err := New(Config{Registry: telemetry.New(), Windows: 8, Interval: time.Second, Now: func() time.Time {
		at = at.Add(step)
		return at
	}})
	if err != nil {
		t.Fatal(err)
	}
	var gaps []time.Duration
	s.OnWindow(func(window uint64, got time.Time, gap time.Duration) {
		if window != uint64(len(gaps)) {
			t.Errorf("listener window %d, want %d", window, len(gaps))
		}
		if !got.Equal(at) {
			t.Errorf("listener at %v, window at %v", got, at)
		}
		if p, _ := s.Latest("c"); len(gaps) > 0 && gap == 0 && p.Rate != 10 {
			t.Errorf("frozen-clock rate %g, want 10 over the nominal 1 s", p.Rate)
		}
		gaps = append(gaps, gap)
	})
	total := uint64(0)
	sample := func(d time.Duration) {
		step = d
		total += 10
		sn := snap()
		sn.Counters["c"] = total
		s.Observe(sn)
	}
	sample(time.Second) // first window
	sample(0)           // frozen clock
	sample(3 * time.Second)
	s.OnWindow(nil)
	sample(time.Second) // detached: not seen
	want := []time.Duration{0, 0, 3 * time.Second}
	if len(gaps) != len(want) {
		t.Fatalf("gaps %v, want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gaps %v, want %v", gaps, want)
		}
	}
}

// TestOnWindowLateListener: a window that began before the listener was
// set reaches it with gap 0 — its rates also cover time before the
// listener existed — and the next window with its measured gap. A
// listener set at the previous window's own stamp misses nothing.
func TestOnWindowLateListener(t *testing.T) {
	at := time.UnixMilli(1_700_000_000_000)
	s, err := New(Config{Registry: telemetry.New(), Windows: 8, Interval: time.Second, Now: func() time.Time { return at }})
	if err != nil {
		t.Fatal(err)
	}
	var gaps []time.Duration
	listen := func(_ uint64, _ time.Time, gap time.Duration) { gaps = append(gaps, gap) }
	s.Observe(snap())
	at = at.Add(900 * time.Millisecond)
	s.OnWindow(listen) // late in the window
	at = at.Add(100 * time.Millisecond)
	s.Observe(snap())
	at = at.Add(time.Second)
	s.Observe(snap())
	s.OnWindow(listen) // at the newest window's stamp
	at = at.Add(time.Second)
	s.Observe(snap())
	want := []time.Duration{0, time.Second, time.Second}
	if len(gaps) != len(want) || gaps[0] != want[0] || gaps[1] != want[1] || gaps[2] != want[2] {
		t.Fatalf("gaps %v, want %v", gaps, want)
	}
}

func TestRingWrapKeepsLastWindows(t *testing.T) {
	s := newTestStore(t, 4)
	for i := 1; i <= 10; i++ {
		sn := snap()
		sn.Gauges["g"] = float64(i)
		s.Observe(sn)
	}
	res := s.Query(Query{})
	if res.Count != 10 || res.Start != 6 || res.Capacity != 4 {
		t.Fatalf("count=%d start=%d capacity=%d", res.Count, res.Start, res.Capacity)
	}
	vals := res.Series["g"].Values
	want := []float64{7, 8, 9, 10}
	for i, w := range want {
		if vals[i] != w {
			t.Fatalf("window %d value %g, want %g (all %v)", i, vals[i], w, vals)
		}
	}
	if len(res.Times) != 4 {
		t.Fatalf("times %v", res.Times)
	}
	for i := 1; i < len(res.Times); i++ {
		if res.Times[i] != res.Times[i-1]+1000 {
			t.Fatalf("times not 1s apart: %v", res.Times)
		}
	}
}

func TestQuerySelection(t *testing.T) {
	s := newTestStore(t, 8)
	for i := 0; i < 5; i++ {
		sn := snap()
		sn.Counters["hub_events_total"] = uint64(i * 10)
		sn.Counters["net_frames_total"] = uint64(i * 20)
		sn.Gauges["sim_devices"] = 3
		s.Observe(sn)
	}

	res := s.Query(Query{LastK: 2})
	if len(res.Times) != 2 || res.Start != 3 {
		t.Fatalf("lastK: start=%d times=%v", res.Start, res.Times)
	}
	if len(res.Series) != 3 {
		t.Fatalf("unfiltered query returned %d series", len(res.Series))
	}

	res = s.Query(Query{Series: []string{"sim_devices"}})
	if len(res.Series) != 1 || res.Series["sim_devices"].Kind != "gauge" {
		t.Fatalf("series filter: %+v", res.Series)
	}

	res = s.Query(Query{Prefixes: []string{"hub_", "net_"}})
	if len(res.Series) != 2 {
		t.Fatalf("prefix filter: %+v", res.Series)
	}

	names := s.SeriesNames()
	if len(names) != 3 || names[0] != "hub_events_total" {
		t.Fatalf("series names %v", names)
	}
}

func TestMarkBreachForensics(t *testing.T) {
	s := newTestStore(t, 32)
	for i := 1; i <= 5; i++ {
		sn := snap()
		sn.Counters["hub_frames_decoded_total"] = uint64(i * 100)
		sn.Gauges["net_ring_depth"] = float64(i)
		s.Observe(sn)
	}

	// The breach is detected in the newest window, index 4.
	var got *Forensics
	s.MarkBreach(BreachMark{
		Rule: "min-rate", Metric: "hub_frames_decoded_total", Value: 0, Limit: 50, Window: 4, AtMillis: 123,
	}, 3, func(f *Forensics) { got = f })

	for i := 6; i <= 7; i++ {
		sn := snap()
		sn.Counters["hub_frames_decoded_total"] = uint64(i * 100)
		s.Observe(sn)
		if got != nil {
			t.Fatalf("forensics fired after %d post windows, want 3", i-5)
		}
	}
	sn := snap()
	sn.Counters["hub_frames_decoded_total"] = 800
	s.Observe(sn)
	if got == nil {
		t.Fatal("forensics never fired")
	}
	if got.Mark.Window != 4 || got.Start != 0 || len(got.Times) != 8 {
		t.Fatalf("capture shape: mark=%d start=%d windows=%d", got.Mark.Window, got.Start, len(got.Times))
	}
	if _, ok := got.Series["hub_frames_decoded_total"]; !ok {
		t.Fatalf("capture missing breach metric: %v", got.Series)
	}

	var tbl strings.Builder
	got.WriteTable(&tbl)
	out := tbl.String()
	for _, want := range []string{"min-rate", "hub_frames_decoded_total", "<- breach"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}

	// The latched marker shows up on the query timeline too.
	res := s.Query(Query{})
	if len(res.Breaches) != 1 || res.Breaches[0].Window != 4 || res.Breaches[0].AtMillis != 123 {
		t.Fatalf("query breaches: %+v", res.Breaches)
	}
}

func TestStopFlushesPendingForensics(t *testing.T) {
	s := newTestStore(t, 16)
	sn := snap()
	sn.Counters["c"] = 10
	s.Observe(sn)

	var got *Forensics
	s.MarkBreach(BreachMark{Rule: "stall", Metric: "c"}, 10, func(f *Forensics) { got = f })
	s.Stop() // run ends inside the tail: the capture fires with what exists
	if got == nil {
		t.Fatal("Stop did not flush the pending capture")
	}
	if len(got.Times) != 1 {
		t.Fatalf("flushed capture has %d windows, want 1", len(got.Times))
	}
	s.Stop() // idempotent
}

func TestSamplerLoop(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("hub_events_total").Add(1)
	s, err := Start(Config{Registry: reg, Windows: 64, Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Captured() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("sampler never captured 3 windows")
		}
		time.Sleep(time.Millisecond)
	}
	before := s.Captured()
	s.Stop()
	after := s.Captured()
	if after <= before {
		t.Fatalf("Stop recorded no last window: %d -> %d", before, after)
	}
	time.Sleep(10 * time.Millisecond)
	if got := s.Captured(); got != after {
		t.Fatalf("sampler still running after Stop: %d -> %d", after, got)
	}
	s.Stop() // idempotent
}

func TestNilAndErrorPaths(t *testing.T) {
	var s *Store
	s.Stop()
	s.Sample()
	s.Observe(nil)
	if s.Windows() != 0 || s.Interval() != 0 || s.Captured() != 0 {
		t.Fatal("nil accessors must be inert")
	}
	if res := s.Query(Query{}); res == nil || len(res.Series) != 0 {
		t.Fatalf("nil query: %+v", res)
	}
	if names := s.SeriesNames(); names != nil {
		t.Fatalf("nil series names: %v", names)
	}
	if _, ok := s.Latest("x"); ok {
		t.Fatal("nil store reported a latest window")
	}
	s.OnWindow(func(uint64, time.Time, time.Duration) {})
	s.MarkBreach(BreachMark{}, 1, nil)

	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil registry")
	}
	if _, err := Start(Config{}); err == nil {
		t.Fatal("Start accepted a nil registry")
	}
}

func TestDefaultsApplied(t *testing.T) {
	s, err := New(Config{Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	if s.Windows() != DefaultWindows || s.Interval() != DefaultInterval {
		t.Fatalf("defaults: windows=%d interval=%s", s.Windows(), s.Interval())
	}
}
