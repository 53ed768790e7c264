package ops

import (
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

func snapWith(counters map[string]uint64) *telemetry.Snapshot {
	s := telemetry.NewSnapshot()
	for k, v := range counters {
		s.AddCounter(k, v)
	}
	return s
}

// TestEvaluateMinRate drives the min-rate rule through store windows: a
// window's rate is its counter delta over the measured gap, and a counter
// the store does not retain reads as rate 0.
func TestEvaluateMinRate(t *testing.T) {
	clk := newFakeClock()
	st := newClockStore(t, telemetry.New(), clk)
	w := startOn(t, st, WatchdogConfig{MinRate: map[string]float64{"hub_events_total": 10}})
	st.Observe(snapWith(map[string]uint64{"hub_events_total": 100})) // baseline

	// 50 events over 2 s = 25/s: healthy.
	clk.advance(2 * time.Second)
	st.Observe(snapWith(map[string]uint64{"hub_events_total": 150}))
	if got := w.Breaches(); len(got) != 0 {
		t.Fatalf("healthy rate breached: %v", got)
	}

	// 10 events over 2 s = 5/s: drained.
	clk.advance(2 * time.Second)
	st.Observe(snapWith(map[string]uint64{"hub_events_total": 160}))
	got := w.Breaches()
	if len(got) != 1 || got[0].Rule != "min-rate" || got[0].Value != 5 || got[0].WindowSeconds != 2 {
		t.Fatalf("drain not detected: %v", got)
	}

	// A counter the store never saw is rate 0: a drain.
	clk = newFakeClock()
	st = newClockStore(t, telemetry.New(), clk)
	w = startOn(t, st, WatchdogConfig{MinRate: map[string]float64{"missing_total": 1}})
	st.Observe(snapWith(nil))
	clk.advance(time.Second)
	st.Observe(snapWith(nil))
	if got := w.Breaches(); len(got) != 1 || got[0].Metric != "missing_total" || got[0].Value != 0 {
		t.Fatalf("absent counter not read as rate 0: %v", got)
	}
}

// TestWatchdogLateAttach: a watchdog attached late in a window (a fleet's
// RunAll starting on a sampler that runs since NewFleet) does not judge
// that window — its rate also covers the idle time before the run — and
// credits it no stall time. The next window is judged as usual.
func TestWatchdogLateAttach(t *testing.T) {
	reg := telemetry.New()
	c := reg.Counter(telemetry.MetricHubEvents)
	clk := newFakeClock()
	st := newClockStore(t, reg, clk)
	st.Sample() // idle registry
	clk.advance(900 * time.Millisecond)
	w := startOn(t, st, WatchdogConfig{MinRate: map[string]float64{telemetry.MetricHubEvents: 100}})
	c.Add(15) // 150/s for the last 100 ms of the window: 15/s over all of it
	clk.advance(100 * time.Millisecond)
	st.Sample()
	if !w.Healthy() {
		t.Fatalf("window begun before the attach was judged: %v", w.Breaches())
	}
	c.Add(150)
	clk.advance(time.Second)
	st.Sample()
	if !w.Healthy() {
		t.Fatalf("healthy window breached: %v", w.Breaches())
	}
	clk.advance(time.Second)
	st.Sample() // drained
	if bs := w.Breaches(); len(bs) != 1 || bs[0].Rule != "min-rate" || bs[0].Value != 0 {
		t.Fatalf("drain after a late attach not detected: %v", bs)
	}

	// The stall clock: the window begun before the attach credits nothing,
	// so a 1.5 s budget breaches only after two whole windows.
	reg = telemetry.New()
	reg.Gauge(telemetry.MetricSimVirtualSeconds).Set(1)
	clk = newFakeClock()
	st = newClockStore(t, reg, clk)
	st.Sample()
	clk.advance(900 * time.Millisecond)
	w = startOn(t, st, WatchdogConfig{StallAfter: 1500 * time.Millisecond})
	stepN(st, clk, 1, 100*time.Millisecond)
	stepN(st, clk, 1, time.Second)
	if !w.Healthy() {
		t.Fatalf("window begun before the attach credited stall time: %v", w.Breaches())
	}
	stepN(st, clk, 1, time.Second)
	if bs := w.Breaches(); len(bs) != 1 || bs[0].Rule != "stall" || bs[0].Value != 2 {
		t.Fatalf("stall after a late attach: %v", bs)
	}
}

func TestEvaluateLatencyP99(t *testing.T) {
	mk := func(fast, slow int) *telemetry.Snapshot {
		h := telemetry.NewLocalHistogram(telemetry.LatencyBucketsMs)
		for i := 0; i < fast; i++ {
			h.Observe(8)
		}
		for i := 0; i < slow; i++ {
			h.Observe(600)
		}
		s := telemetry.NewSnapshot()
		s.MergeHistogram(telemetry.MetricHubE2ELatency, h.Snapshot())
		return s
	}
	cfg := WatchdogConfig{LatencyMaxP99Ms: 100}
	clk := newFakeClock()
	st := newClockStore(t, telemetry.New(), clk)
	w := startOn(t, st, cfg)
	st.Observe(telemetry.NewSnapshot()) // baseline, no histogram yet

	// All-fast window: clean.
	clk.advance(time.Second)
	st.Observe(mk(100, 0))
	if got := w.Breaches(); len(got) != 0 {
		t.Fatalf("fast window breached: %v", got)
	}

	// The *window* is what matters: the histogram holds 1000 fast frames,
	// the new window adds 100 slow ones. Cumulative p99 looks fine; the
	// delta must not.
	clk.advance(time.Second)
	st.Observe(mk(1000, 0))
	clk.advance(time.Second)
	st.Observe(mk(1000, 100))
	got := w.Breaches()
	if len(got) != 1 || got[0].Rule != "latency-p99" {
		t.Fatalf("windowed tail regression missed: %v", got)
	}
	if got[0].Value <= 100 {
		t.Fatalf("breach p99 %.1f not above limit", got[0].Value)
	}

	// An idle window (no new observations) is not a latency breach.
	clk.advance(time.Second)
	st.Observe(mk(1000, 100))
	if got := w.Breaches(); len(got) != 1 {
		t.Fatalf("idle window breached latency: %v", got)
	}

	// A histogram that went backwards (registry swapped) is not
	// evaluated, however slow its cumulative tail.
	clk = newFakeClock()
	st = newClockStore(t, telemetry.New(), clk)
	w = startOn(t, st, cfg)
	st.Observe(mk(0, 200))
	clk.advance(time.Second)
	st.Observe(mk(0, 100))
	if got := w.Breaches(); len(got) != 0 {
		t.Fatalf("regressed histogram evaluated: %v", got)
	}
}

// TestEvaluateZeroWindow: the store's first window and every window of a
// frozen clock have no measured gap, so they evaluate nothing — even a
// rule that every real window would breach.
func TestEvaluateZeroWindow(t *testing.T) {
	clk := newFakeClock()
	st := newClockStore(t, telemetry.New(), clk)
	w := startOn(t, st, WatchdogConfig{MinRate: map[string]float64{"x": 1}})
	for i := 0; i < 3; i++ {
		st.Observe(telemetry.NewSnapshot())
	}
	if got := w.Breaches(); got != nil {
		t.Fatalf("zero-gap window evaluated: %v", got)
	}
}

func TestWatchdogStallDetection(t *testing.T) {
	reg := telemetry.New()
	reg.Gauge(telemetry.MetricSimVirtualSeconds).Set(1)
	done := make(chan struct{})
	var once bool
	w := StartWatchdog(WatchdogConfig{
		History:    startStore(t, reg, 5*time.Millisecond),
		StallAfter: 25 * time.Millisecond,
		OnBreach: func(Breach) {
			if !once {
				once = true
				close(done)
			}
		},
	})
	defer w.Stop()

	// Keep the clock moving for a while: no breach may fire.
	for i := 0; i < 10; i++ {
		reg.Gauge(telemetry.MetricSimVirtualSeconds).Set(float64(i + 2))
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case <-done:
		t.Fatalf("advancing clock reported as stalled: %v", w.Breaches())
	default:
	}

	// Now freeze it: the stall rule must fire.
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("frozen clock never reported")
	}
	w.Stop()
	breaches := w.Breaches()
	if breaches[0].Rule != "stall" || breaches[0].Metric != telemetry.MetricSimVirtualSeconds {
		t.Fatalf("wrong breach: %+v", breaches[0])
	}
	if w.Healthy() {
		t.Fatal("watchdog still healthy after stall breach")
	}
}

// TestWatchdogFiresFlightRecorder pins the flight-recorder integration: a
// breach must produce a bounded flight-recorder dump through the
// watchdog's own recorder.
func TestWatchdogFiresFlightRecorder(t *testing.T) {
	var dump strings.Builder
	tracer := tracing.New(tracing.Config{Capacity: 64, Bounded: true, DumpTo: &dump})
	reg := telemetry.New()
	done := make(chan struct{})
	var once bool
	st := startStore(t, reg, 5*time.Millisecond)
	w := StartWatchdog(WatchdogConfig{
		History: st,
		MinRate: map[string]float64{telemetry.MetricHubEvents: 100},
		Tracer:  tracer,
		OnBreach: func(Breach) {
			if !once {
				once = true
				close(done)
			}
		},
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("drained registry never breached")
	}
	w.Stop()
	st.Stop() // quiesce the recorder before reading the dump
	if tracer.Dumps() == 0 {
		t.Fatal("breach did not fire the flight recorder")
	}
	if out := dump.String(); !strings.Contains(out, "slo-watchdog") || !strings.Contains(out, "min-rate") {
		t.Fatalf("dump missing watchdog context:\n%s", out)
	}
	bs := w.Breaches()
	if len(bs) == 0 || bs[0].Limit != 100 {
		t.Fatalf("breach list wrong: %v", bs)
	}
}

// TestWatchdogDumpsOncePerEpisode: a drain that lasts several windows is
// one episode — every window is a recorded breach and a timeline marker,
// but only the first dumps the flight recorder and schedules forensics. A
// drain after a healthy window is a new episode.
func TestWatchdogDumpsOncePerEpisode(t *testing.T) {
	var dump strings.Builder
	tracer := tracing.New(tracing.Config{Capacity: 64, Bounded: true, DumpTo: &dump})
	clk := newFakeClock()
	st := newClockStore(t, telemetry.New(), clk)
	w := startOn(t, st, WatchdogConfig{
		MinRate:           map[string]float64{"c": 10},
		Tracer:            tracer,
		PostBreachWindows: 2,
	})
	total := uint64(0)
	window := func(add uint64) {
		total += add
		clk.advance(time.Second)
		st.Observe(snapWith(map[string]uint64{"c": total}))
	}
	window(0) // baseline
	window(0)
	window(0)
	window(0) // three drained windows; the first one's tail completes here
	if got := len(w.Breaches()); got != 3 {
		t.Fatalf("%d breaches over three drained windows, want 3", got)
	}
	if got := len(st.Query(history.Query{}).Breaches); got != 3 {
		t.Fatalf("%d timeline markers, want 3", got)
	}
	if got := tracer.Dumps(); got != 2 {
		t.Fatalf("%d dumps for one episode, want the breach and its forensics:\n%s", got, dump.String())
	}
	if bs := w.Breaches(); bs[0].History == nil || bs[1].History != nil {
		t.Fatal("forensics not attached to the episode's first breach only")
	}
	window(100) // healthy
	window(0)   // a new episode
	if got := tracer.Dumps(); got != 3 {
		t.Fatalf("%d dumps after a second episode, want 3", got)
	}
}

// TestWatchdogStopDetaches: after Stop the store keeps sampling but no
// rule runs, so a drain that starts later records nothing.
func TestWatchdogStopDetaches(t *testing.T) {
	clk := newFakeClock()
	st := newClockStore(t, telemetry.New(), clk)
	w := startOn(t, st, WatchdogConfig{MinRate: map[string]float64{"x": 1}})
	w.Stop()
	st.Sample()
	clk.advance(time.Second)
	st.Sample()
	if !w.Healthy() {
		t.Fatalf("stopped watchdog evaluated: %v", w.Breaches())
	}
	w.Stop() // idempotent
}

func TestWatchdogNilAndNoop(t *testing.T) {
	var w *Watchdog
	if !w.Healthy() || w.Breaches() != nil {
		t.Fatal("nil watchdog must be healthy and empty")
	}
	w.Stop() // must not panic
	if StartWatchdog(WatchdogConfig{}) != nil {
		t.Fatal("rule-less config started a watchdog")
	}
	if StartWatchdog(WatchdogConfig{StallAfter: time.Second}) != nil {
		t.Fatal("store-less config started a watchdog")
	}
	st := newClockStore(t, telemetry.New(), newFakeClock())
	if StartWatchdog(WatchdogConfig{History: st}) != nil {
		t.Fatal("rule-less config with a store started a watchdog")
	}
}

// startStore runs a history store sampling reg every interval, stopped at
// test end.
func startStore(t *testing.T, reg *telemetry.Registry, interval time.Duration) *history.Store {
	t.Helper()
	st, err := history.Start(history.Config{Registry: reg, Interval: interval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Stop)
	return st
}
