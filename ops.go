package distscroll

import (
	"errors"
	"io"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/ops"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// SLO declares the service-level objectives an observed fleet run must
// hold. Rules are evaluated over every window of the fleet's telemetry
// history (WithHistory's interval, 1 s by default), so a long healthy
// history cannot mask a current outage. Each RunAll is judged from the
// first window that begins after it starts, so idle time before the run
// never reads as a drain. Zero values disable their rule.
type SLO struct {
	// LatencyP99 breaches when the end-to-end latency p99 of a window
	// exceeds it.
	LatencyP99 time.Duration
	// MinFramesPerSec breaches when decoded frames per wall-clock second
	// drop below this floor (drain detection).
	MinFramesPerSec float64
	// StallAfter breaches when the hub decodes nothing for this long (the
	// stuck-clock detector).
	StallAfter time.Duration
}

// configured reports whether any rule is active.
func (s SLO) configured() bool {
	return s.LatencyP99 > 0 || s.MinFramesPerSec > 0 || s.StallAfter > 0
}

// SLOBreach is one recorded objective violation; see SLOBreaches.
type SLOBreach = ops.Breach

// WithOpsServer serves the live ops plane — GET /metrics (Prometheus),
// /vars (JSON), /healthz, /api/device?id=N (one device's counters and
// latency), /debug/pprof — on addr (host:port; port 0 picks
// a free one, see Fleet.OpsURL) for the lifetime of the fleet. Telemetry
// is implied: a registry is created automatically unless WithMetrics
// supplied one. Fleet-only; New rejects it.
func WithOpsServer(addr string) Option {
	return func(c *config) error {
		if addr == "" {
			return errors.New("distscroll: empty ops server address")
		}
		c.opsAddr = addr
		return nil
	}
}

// WithSLOWatchdog guards RunAll with the given objectives: breaches latch
// /healthz to 503 (with WithOpsServer), are reported by Fleet.Healthy and
// Fleet.SLOBreaches, and fire a flight-recorder dump when the fleet also
// has WithTracing. The rules run on the telemetry history's windows, so
// WithHistory is implied at its defaults unless given, and telemetry is
// implied as with WithOpsServer. Fleet-only; New rejects it.
func WithSLOWatchdog(slo SLO) Option {
	return func(c *config) error {
		if !slo.configured() {
			return errors.New("distscroll: SLO watchdog needs at least one rule (LatencyP99, MinFramesPerSec or StallAfter)")
		}
		c.slo = &slo
		return nil
	}
}

// historyOptions carries WithHistory's parameters until NewFleet builds
// the store.
type historyOptions struct {
	windows  int
	interval time.Duration
}

// WithHistory retains a rolling window of telemetry history: a sampler
// captures the registry every interval and keeps the last `windows`
// samples per series in bounded ring buffers (counters as windowed
// rates, gauges as raw samples, histograms as per-window delta digests).
// With WithOpsServer the history is queryable live at /api/history and
// rendered by the /dash dashboard; with WithSLOWatchdog every breach is
// marked on the timeline and gains a pre/post forensics capture. Zero
// values take the defaults (120 windows, 1 s). Telemetry is implied, as
// with WithOpsServer. Fleet-only; New rejects it.
func WithHistory(windows int, interval time.Duration) Option {
	return func(c *config) error {
		if windows < 0 {
			return errors.New("distscroll: negative history window count")
		}
		if interval < 0 {
			return errors.New("distscroll: negative history interval")
		}
		c.history = &historyOptions{windows: windows, interval: interval}
		return nil
	}
}

// opsState is the fleet's live ops plane: the HTTP server and the
// history sampler run from NewFleet until CloseOps; the watchdog
// evaluates the sampler's windows during RunAll and keeps its latched
// verdict afterwards.
type opsState struct {
	srv      *ops.Server
	slo      *SLO
	watchdog *ops.Watchdog
	hist     *history.Store
}

// startOps builds the fleet's ops plane from a parsed config. Called by
// NewFleet after the registry and the hub backend exist; lookup serves the
// /api/device drill-down.
func startOps(cfg *config, reg *telemetry.Registry, lookup func(uint32) (*core.Session, bool)) (*opsState, error) {
	st := &opsState{slo: cfg.slo}
	if cfg.history != nil || cfg.slo != nil {
		hcfg := history.Config{Registry: reg}
		if cfg.history != nil {
			hcfg.Windows, hcfg.Interval = cfg.history.windows, cfg.history.interval
		}
		hist, err := history.Start(hcfg)
		if err != nil {
			return nil, err
		}
		st.hist = hist
	}
	if cfg.opsAddr != "" {
		srv, err := ops.Serve(cfg.opsAddr, ops.Config{Registry: reg, History: st.hist, Lookup: lookup})
		if err != nil {
			st.hist.Stop()
			return nil, err
		}
		st.srv = srv
	}
	return st, nil
}

// beginRun starts the SLO watchdog for one RunAll and points /healthz at
// it.
func (f *Fleet) beginRun() {
	if f.ops == nil || f.ops.slo == nil {
		return
	}
	slo := f.ops.slo
	cfg := ops.WatchdogConfig{
		History:         f.ops.hist,
		LatencyMaxP99Ms: float64(slo.LatencyP99) / float64(time.Millisecond),
		StallGauge:      telemetry.MetricHubDecoded,
		StallAfter:      slo.StallAfter,
	}
	if slo.MinFramesPerSec > 0 {
		cfg.MinRate = map[string]float64{telemetry.MetricHubDecoded: slo.MinFramesPerSec}
	}
	if f.tracing != nil {
		cfg.Tracer = f.tracing.tracer
	}
	f.ops.watchdog = ops.StartWatchdog(cfg)
	// Point the running server's /healthz at this run's watchdog.
	f.ops.srv.SetWatchdog(f.ops.watchdog)
}

// endRun stops the watchdog; its latched verdict stays readable.
func (f *Fleet) endRun() {
	if f.ops != nil {
		f.ops.watchdog.Stop()
	}
}

// OpsURL returns the base URL of the ops server ("" without
// WithOpsServer).
func (f *Fleet) OpsURL() string {
	if f.ops == nil {
		return ""
	}
	return f.ops.srv.URL()
}

// CloseOps stops the ops HTTP server, the watchdog, and the history
// sampler. Safe to call without WithOpsServer and safe to call twice.
func (f *Fleet) CloseOps() error {
	if f.ops == nil {
		return nil
	}
	f.ops.watchdog.Stop()
	f.ops.hist.Stop()
	return f.ops.srv.Close()
}

// WriteHistory writes the retained telemetry history (the last lastK
// windows; <= 0 means everything retained) as indented JSON — the same
// document /api/history serves. Errors without WithHistory.
func (f *Fleet) WriteHistory(w io.Writer, lastK int) error {
	if f.ops == nil || f.ops.hist == nil {
		return errors.New("distscroll: fleet has no history store (enable WithHistory)")
	}
	return f.ops.hist.WriteJSON(w, history.Query{LastK: lastK})
}

// Healthy reports whether the SLO watchdog has recorded no breaches. A
// fleet without WithSLOWatchdog is always healthy.
func (f *Fleet) Healthy() bool {
	if f.ops == nil {
		return true
	}
	return f.ops.watchdog.Healthy()
}

// SLOBreaches returns the watchdog's recorded breaches in detection order.
func (f *Fleet) SLOBreaches() []SLOBreach {
	if f.ops == nil {
		return nil
	}
	return f.ops.watchdog.Breaches()
}
