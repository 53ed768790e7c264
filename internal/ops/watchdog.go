package ops

import (
	"fmt"
	"sync"
	"time"

	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

// Breach is one SLO violation observed by the watchdog. The JSON shape
// is the /healthz 503 body schema.
type Breach struct {
	// Rule names the rule that fired: "min-rate", "latency-p99", "stall".
	Rule string `json:"rule"`
	// Metric is the series the rule evaluated.
	Metric string `json:"metric"`
	// Value is the observed quantity, Limit the configured threshold
	// (units depend on the rule: per-second rate, milliseconds, seconds).
	Value float64 `json:"value"`
	Limit float64 `json:"limit"`
	// WindowSeconds is the evaluation window the rule fired over.
	WindowSeconds float64 `json:"window"`
	// AtMillis is the breach detection time (unix milliseconds).
	AtMillis int64 `json:"atMillis"`
	// History is the breach's pre/post forensics capture, attached
	// asynchronously once the history store (WatchdogConfig.History) has
	// sampled the post-breach tail. Excluded from the /healthz body —
	// fetch it from /api/history or the flight-recorder dump.
	History *history.Forensics `json:"-"`
}

// String renders the breach for /healthz and log lines.
func (b Breach) String() string {
	return fmt.Sprintf("%s: %s %.3g (limit %.3g)", b.Rule, b.Metric, b.Value, b.Limit)
}

// WatchdogConfig parameterises an SLO watchdog.
type WatchdogConfig struct {
	// History is the store whose windows the rules evaluate: the watchdog
	// runs after every window the store appends, so its cadence is the
	// store's Interval. Required.
	History *history.Store

	// MinRate maps counter names to their minimum healthy per-second
	// rate-of-change. A window whose rate drops below the floor is a
	// drain (the pipeline stopped producing); a counter the store does
	// not retain reads as rate 0.
	MinRate map[string]float64

	// LatencyMaxP99Ms, when > 0, breaches if the named histogram's p99
	// over the window exceeds it. LatencyMetric defaults to
	// hub_e2e_latency_ms. Windows with no observations are skipped —
	// absence of traffic is MinRate's job.
	LatencyMetric   string
	LatencyMaxP99Ms float64

	// StallAfter, when > 0, breaches if the StallGauge (default
	// sim_virtual_seconds) fails to advance for that long of wall time —
	// the stuck-clock detector for a wedged worker. A name with no gauge
	// falls back to the counter of the same name, so progress counters
	// (e.g. hub_frames_decoded_total) work as stall clocks too.
	StallGauge string
	StallAfter time.Duration

	// OnBreach is called for every breach as it is detected (on the
	// history store's sampling goroutine; keep it fast).
	OnBreach func(Breach)
	// Tracer, when set, receives a flight-recorder anomaly per breach
	// and, once the breach's forensics are captured, a second dump with
	// the pre/post history table. Both run on the store's sampling
	// goroutine (or its Stop caller), so the watchdog's one recorder
	// keeps the single-writer contract.
	Tracer *tracing.Tracer

	// PostBreachWindows is the post-breach tail length in history
	// windows (<= 0 takes history.DefaultPostWindows): every breach is
	// marked on the history timeline, and once the tail is sampled the
	// pre/post capture is attached to the Breach record.
	PostBreachWindows int
}

// Watchdog evaluates SLO rules over the history store's windows. Health
// is latched: once any rule fires the watchdog stays unhealthy (and
// /healthz stays 503) so a flapping breach cannot hide from a slow
// scraper.
type Watchdog struct {
	cfg      WatchdogConfig
	recorder *tracing.Recorder
	stopOnce sync.Once

	mu       sync.Mutex
	breaches []Breach

	// Evaluation state, touched only by the store's listener calls (which
	// the store serialises) and by attachForensics after them. start is
	// the first evaluated window's time, the origin of recorder stamps;
	// lastAt and window are the newest window's stamp and global index,
	// and lastFired holds the window each rule/metric pair last breached
	// in (see report).
	start, lastAt time.Time
	window        uint64
	lastFired     map[[2]string]uint64
	// stallFor accumulates observed window time since the stall clock
	// last moved. It is credited per window, clamped (see onWindow), so a
	// single stretched wall gap — a GC pause, a suspended CI runner —
	// cannot alone exceed StallAfter while the run is healthy.
	stallVal float64
	stallFor time.Duration
}

// maxBreaches bounds the retained breach list; /healthz needs the shape of
// the failure, not an unbounded log.
const maxBreaches = 32

// StartWatchdog attaches cfg's rules to cfg.History's window listener
// until Stop. Returns nil (a no-op watchdog that is always healthy) when
// cfg.History is nil or no rule is configured.
func StartWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.History == nil {
		return nil
	}
	if len(cfg.MinRate) == 0 && cfg.LatencyMaxP99Ms <= 0 && cfg.StallAfter <= 0 {
		return nil
	}
	if cfg.LatencyMetric == "" {
		cfg.LatencyMetric = telemetry.MetricHubE2ELatency
	}
	if cfg.StallGauge == "" {
		cfg.StallGauge = telemetry.MetricSimVirtualSeconds
	}
	w := &Watchdog{cfg: cfg, lastFired: make(map[[2]string]uint64)}
	if cfg.Tracer != nil {
		w.recorder = cfg.Tracer.NewRecorder("slo-watchdog", 0)
	}
	w.stallVal = w.stallValue()
	cfg.History.OnWindow(w.onWindow)
	return w
}

// onWindow runs the rules over the store's newest window. A window
// stretched far beyond the store's interval means the sampler (or the
// whole process — a GC pause, a suspended CI runner) was starved of wall
// time, not that the pipeline drained: rates over such a window measure
// the scheduler, not the model, so the rate/latency rules skip it, and the
// stall accumulator is credited at most 2× the interval so one giant gap
// cannot alone latch a stuck-clock breach on a healthy run. A frozen clock,
// the store's first window and a window that began before the watchdog
// attached yield gap <= 0, which evaluates nothing and accumulates nothing:
// wall time that did not observably pass, or passed before the run the
// watchdog guards, cannot count as a drain or as stall time.
func (w *Watchdog) onWindow(window uint64, at time.Time, gap time.Duration) {
	if w.start.IsZero() {
		w.start = at
	}
	w.lastAt, w.window = at, window
	credit := gap
	if max := 2 * w.cfg.History.Interval(); credit > max {
		credit = max
	} else if gap > 0 {
		w.checkRates(gap)
	}
	w.checkStall(credit)
}

// checkRates runs the windowed rules (min-rate, latency-p99) over a window
// gap long.
func (w *Watchdog) checkRates(gap time.Duration) {
	st := w.cfg.History
	for name, floor := range w.cfg.MinRate {
		p, _ := st.Latest(name)
		if p.Rate < floor {
			w.report(Breach{Rule: "min-rate", Metric: name, Value: p.Rate, Limit: floor, WindowSeconds: gap.Seconds()})
		}
	}
	if w.cfg.LatencyMaxP99Ms > 0 {
		// An idle window, and one where the histogram regressed (registry
		// swapped), carry an empty digest: nothing to evaluate.
		name := w.cfg.LatencyMetric
		if p, ok := st.Latest(name); ok && p.Digest.Count > 0 && p.Digest.P99 > w.cfg.LatencyMaxP99Ms {
			w.report(Breach{Rule: "latency-p99", Metric: name, Value: p.Digest.P99, Limit: w.cfg.LatencyMaxP99Ms, WindowSeconds: gap.Seconds()})
		}
	}
}

// checkStall tracks the stall clock across windows: any change resets the
// accumulator; StallAfter of accumulated observed window time without one
// is a breach.
func (w *Watchdog) checkStall(window time.Duration) {
	if w.cfg.StallAfter <= 0 {
		return
	}
	if v := w.stallValue(); v != w.stallVal {
		w.stallVal = v
		w.stallFor = 0
		return
	}
	if window > 0 {
		w.stallFor += window
	}
	if w.stallFor < w.cfg.StallAfter {
		return
	}
	stuck := w.stallFor
	w.stallFor = 0 // re-arm so a persistent stall fires once per StallAfter
	w.report(Breach{
		Rule:          "stall",
		Metric:        w.cfg.StallGauge,
		Value:         stuck.Seconds(),
		Limit:         w.cfg.StallAfter.Seconds(),
		WindowSeconds: stuck.Seconds(),
	})
}

// stallValue reads the stall clock from the store's newest window: the
// named gauge's sample, or the cumulative count of the counter of the same
// name; 0 while the store retains neither.
func (w *Watchdog) stallValue() float64 {
	p, _ := w.cfg.History.Latest(w.cfg.StallGauge)
	return p.Value
}

// report latches unhealthy, records the breach, marks the history
// timeline, notifies OnBreach, and records the breach on the flight
// recorder. A rule that keeps breaching window after window is one
// episode: only its first window dumps the flight recorder and schedules
// a forensics capture, so a persistent drain does not spend the tracer's
// dump budget before its own pre/post table is ready.
func (w *Watchdog) report(b Breach) {
	key := [2]string{b.Rule, b.Metric}
	prev, seen := w.lastFired[key]
	w.lastFired[key] = w.window
	episode := !seen || prev+1 != w.window

	b.AtMillis = w.lastAt.UnixMilli()
	w.mu.Lock()
	idx := -1
	if len(w.breaches) < maxBreaches {
		idx = len(w.breaches)
		w.breaches = append(w.breaches, b)
	}
	w.mu.Unlock()
	mark := history.BreachMark{
		Rule: b.Rule, Metric: b.Metric, Value: b.Value, Limit: b.Limit,
		Window: w.window, AtMillis: b.AtMillis,
	}
	var onReady func(*history.Forensics)
	if episode {
		onReady = func(f *history.Forensics) { w.attachForensics(idx, f) }
	}
	w.cfg.History.MarkBreach(mark, w.cfg.PostBreachWindows, onReady)
	if w.recorder != nil {
		at := w.lastAt.Sub(w.start)
		if episode {
			w.recorder.Anomaly(tracing.HopSessionSLO, 0, at,
				clampU32(b.Value), clampU32(b.Limit), b.String())
		} else {
			w.recorder.Record(tracing.HopSessionSLO, 0, at, clampU32(b.Value), clampU32(b.Limit))
		}
	}
	if w.cfg.OnBreach != nil {
		w.cfg.OnBreach(b)
	}
}

// attachForensics lands a completed history capture on its breach record
// and dumps the pre/post table through the flight recorder. Runs on the
// history store's sampling goroutine (or its Stop caller) via the
// MarkBreach callback, after the window's listener call.
func (w *Watchdog) attachForensics(idx int, f *history.Forensics) {
	if f == nil {
		return
	}
	if idx >= 0 {
		w.mu.Lock()
		if idx < len(w.breaches) {
			w.breaches[idx].History = f
		}
		w.mu.Unlock()
	}
	if w.recorder != nil {
		at := w.lastAt.Sub(w.start)
		reason := fmt.Sprintf("%s: %s pre/post-breach history (window %d)",
			f.Mark.Rule, f.Mark.Metric, f.Mark.Window)
		w.recorder.AnomalyNote(tracing.HopSessionSLO, 0, at,
			clampU32(f.Mark.Value), clampU32(f.Mark.Limit), reason, f.WriteTable)
	}
}

func clampU32(v float64) uint32 {
	if v < 0 {
		return 0
	}
	if v > float64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(v)
}

// Healthy reports whether no rule has fired. A nil watchdog is healthy.
func (w *Watchdog) Healthy() bool {
	if w == nil {
		return true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.breaches) == 0
}

// Breaches returns the recorded breaches in detection order.
func (w *Watchdog) Breaches() []Breach {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Breach(nil), w.breaches...)
}

// Stop detaches the watchdog from its history store; once it returns no
// rule runs again. Breach forensics still pending complete on the store as
// it keeps sampling (or flush at its Stop). Safe on nil and safe to call
// twice.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() { w.cfg.History.OnWindow(nil) })
}
