package ops

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// These are the regression tests for the watchdog wall-clock bugfix: rule
// windows are measured on the history store's injectable clock, windows
// stretched far beyond the interval are discounted, and wall time that did
// not observably pass accumulates no stall credit. Each test drives the
// store's windows by hand, so no real sleeping is involved.

// fakeClock is an injectable store clock the test advances by hand.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

// newClockStore builds a passive 1 s history store over reg on clk.
func newClockStore(t *testing.T, reg *telemetry.Registry, clk *fakeClock) *history.Store {
	t.Helper()
	st, err := history.New(history.Config{Registry: reg, Windows: 16, Interval: time.Second, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// startOn attaches a watchdog to st, detached at test end.
func startOn(t *testing.T, st *history.Store, cfg WatchdogConfig) *Watchdog {
	t.Helper()
	cfg.History = st
	w := StartWatchdog(cfg)
	if w == nil {
		t.Fatal("watchdog did not start")
	}
	t.Cleanup(w.Stop)
	return w
}

// clockWatchdog samples a baseline window of reg at the clock's start and
// attaches a watchdog with cfg's rules; each later window is one stepN.
func clockWatchdog(t *testing.T, reg *telemetry.Registry, clk *fakeClock, cfg WatchdogConfig) (*history.Store, *Watchdog) {
	t.Helper()
	st := newClockStore(t, reg, clk)
	st.Sample()
	return st, startOn(t, st, cfg)
}

// stepN samples n windows, d apart.
func stepN(st *history.Store, c *fakeClock, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		c.advance(d)
		st.Sample()
	}
}

// TestWatchdogFrozenClockIsNotAStall freezes the injected clock entirely:
// windows where no wall time observably passed must accumulate no stall
// credit and evaluate no rate rules, no matter how often the store samples.
// Before the fix a wall-clock step backwards (NTP, suspended laptop) could
// produce such windows against time.Now and latch a spurious breach.
func TestWatchdogFrozenClockIsNotAStall(t *testing.T) {
	reg := telemetry.New()
	reg.Gauge(telemetry.MetricSimVirtualSeconds).Set(1)
	clk := newFakeClock()
	st, w := clockWatchdog(t, reg, clk, WatchdogConfig{
		StallAfter: 3 * time.Second,
		MinRate:    map[string]float64{telemetry.MetricHubEvents: 100},
	})
	// 100 windows, zero elapsed time, idle registry: the stall
	// accumulator and the min-rate rule must both stay quiet.
	stepN(st, clk, 100, 0)
	if !w.Healthy() {
		t.Fatalf("frozen clock latched a breach: %v", w.Breaches())
	}
}

// TestWatchdogGiantWallGapDiscounted suspends the process (one window of an
// hour) over a healthy run: per-second rates computed over the gap would
// look drained and the stall accumulator would overshoot StallAfter in one
// hop, so the stretched window must be skipped by the windowed rules and
// credited at most 2×Interval of stall time.
func TestWatchdogGiantWallGapDiscounted(t *testing.T) {
	reg := telemetry.New()
	reg.Gauge(telemetry.MetricSimVirtualSeconds).Set(1)
	clk := newFakeClock()
	st, w := clockWatchdog(t, reg, clk, WatchdogConfig{
		StallAfter: 10 * time.Second,
		MinRate:    map[string]float64{telemetry.MetricHubEvents: 100},
	})

	// Healthy cadence: 150 events and one gauge tick per 1 s window.
	virt := 1.0
	tick := func(n int) {
		for i := 0; i < n; i++ {
			reg.Counter(telemetry.MetricHubEvents).Add(150)
			virt++
			reg.Gauge(telemetry.MetricSimVirtualSeconds).Set(virt)
			stepN(st, clk, 1, time.Second)
		}
	}
	tick(5)
	if !w.Healthy() {
		t.Fatalf("healthy cadence breached: %v", w.Breaches())
	}

	// The runner is suspended for an hour mid-window; the counters and the
	// gauge did not move. 150 events / 3600 s is far below the floor, but
	// the window measured the scheduler, not the pipeline.
	stepN(st, clk, 1, time.Hour)
	if !w.Healthy() {
		t.Fatalf("one suspended window latched a breach: %v", w.Breaches())
	}
	// Back to the healthy cadence: the gap credited at most 2 s of stall, so
	// even several idle-gauge windows later the 10 s budget has room — but
	// the run resumes advancing, which resets the accumulator anyway.
	tick(5)
	if !w.Healthy() {
		t.Fatalf("post-gap cadence breached: %v", w.Breaches())
	}
}

// TestWatchdogGenuineStallStillFires is the other half of the gap
// discounting: a real stall — wall time passing one interval at a time with
// a frozen stall clock — must still accumulate and breach, and the
// accumulator must re-arm so a persistent stall fires again.
func TestWatchdogGenuineStallStillFires(t *testing.T) {
	reg := telemetry.New()
	reg.Gauge(telemetry.MetricSimVirtualSeconds).Set(1)
	clk := newFakeClock()
	st, w := clockWatchdog(t, reg, clk, WatchdogConfig{StallAfter: 3 * time.Second})
	stepN(st, clk, 2, time.Second)
	if !w.Healthy() {
		t.Fatalf("breached before StallAfter elapsed: %v", w.Breaches())
	}
	stepN(st, clk, 1, time.Second)
	bs := w.Breaches()
	if len(bs) != 1 || bs[0].Rule != "stall" || bs[0].Metric != telemetry.MetricSimVirtualSeconds {
		t.Fatalf("genuine stall not detected: %v", bs)
	}
	if bs[0].Value < 3 {
		t.Fatalf("stall breach reports %.1f s stuck, want >= 3", bs[0].Value)
	}
	// Still stuck: the re-armed accumulator fires again after another budget.
	stepN(st, clk, 3, time.Second)
	if got := len(w.Breaches()); got != 2 {
		t.Fatalf("persistent stall fired %d times over two budgets, want 2", got)
	}
	// Progress clears the accumulator: no further breaches while advancing.
	reg.Gauge(telemetry.MetricSimVirtualSeconds).Set(2)
	stepN(st, clk, 2, time.Second)
	reg.Gauge(telemetry.MetricSimVirtualSeconds).Set(3)
	stepN(st, clk, 2, time.Second)
	if got := len(w.Breaches()); got != 2 {
		t.Fatalf("advancing clock accrued breaches: %v", w.Breaches())
	}
}

// TestWatchdogStallCounterFallback: a stall clock with no gauge of its name
// reads the counter of the same name, so a progress counter that stops
// moving is a stall too.
func TestWatchdogStallCounterFallback(t *testing.T) {
	reg := telemetry.New()
	c := reg.Counter(telemetry.MetricHubDecoded)
	c.Add(1)
	clk := newFakeClock()
	st, w := clockWatchdog(t, reg, clk, WatchdogConfig{StallGauge: telemetry.MetricHubDecoded, StallAfter: 2 * time.Second})
	for i := 0; i < 4; i++ {
		c.Add(1)
		stepN(st, clk, 1, time.Second)
	}
	if !w.Healthy() {
		t.Fatalf("moving counter reported as stalled: %v", w.Breaches())
	}
	stepN(st, clk, 2, time.Second)
	if bs := w.Breaches(); len(bs) != 1 || bs[0].Rule != "stall" || bs[0].Metric != telemetry.MetricHubDecoded {
		t.Fatalf("stopped counter not reported as stalled: %v", bs)
	}
}

// TestHealthzImmuneToWallClockSteps wires an injected-clock watchdog into
// the ops handler and walks the clock through a freeze and a giant step over
// a healthy run: /healthz must stay 200 throughout, and must flip to 503
// only for a genuine stall.
func TestHealthzImmuneToWallClockSteps(t *testing.T) {
	reg := telemetry.New()
	reg.Gauge(telemetry.MetricSimVirtualSeconds).Set(1)
	clk := newFakeClock()
	st, w := clockWatchdog(t, reg, clk, WatchdogConfig{StallAfter: 3 * time.Second})
	h := handler(reg, func() *Watchdog { return w }, nil)
	health := func() int {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		return rr.Code
	}

	stepN(st, clk, 10, 0)        // frozen wall clock
	stepN(st, clk, 1, time.Hour) // giant step
	if got := health(); got != http.StatusOK {
		t.Fatalf("/healthz = %d after clock chaos on a healthy run, want 200", got)
	}
	stepN(st, clk, 3, time.Second) // genuine stall
	if got := health(); got != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d after a genuine stall, want 503", got)
	}
}
