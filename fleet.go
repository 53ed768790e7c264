package distscroll

import (
	"errors"
	"fmt"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/fleet"
	"github.com/hcilab/distscroll/internal/hubnet"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// Fleet is a population of simulated DistScroll devices served by one
// host-side hub — the paper's wireless device-to-PC link (Section 3.2)
// scaled out. Every device is built from the same option set, gets its own
// derived seed and wire id, and runs the same scripted menu workload on its
// own virtual clock; RunAll simulates them concurrently.
//
//	f, err := distscroll.NewFleet(64, distscroll.WithEntries(12))
//	if err != nil { ... }
//	f.OnScroll(func(device int, e distscroll.Event) { ... })
//	report, err := f.RunAll()
//	fmt.Println(report.Frames, report.Lost)
type Fleet struct {
	runner  *fleet.Runner
	metrics *telemetry.Registry
	tracing *Tracing
	ops     *opsState

	onScroll func(device int, e Event)
	onSelect func(device int, e Event)
	onLevel  func(device int, e Event)
}

// NewFleet assembles n devices from the given options. The options are the
// same ones New accepts; WithSeed seeds the whole fleet (each device
// derives an independent stream from it) and WithDeviceID is ignored —
// fleet devices are numbered 1..n on the wire.
func NewFleet(n int, opts ...Option) (*Fleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("distscroll: fleet needs at least 1 device, got %d", n)
	}
	cfg := config{core: core.DefaultConfig()}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.root == nil {
		return nil, errors.New("distscroll: a menu is required (WithMenu or WithEntries)")
	}
	if (cfg.opsAddr != "" || cfg.slo != nil || cfg.history != nil) && cfg.core.Metrics == nil {
		// The ops plane implies telemetry: scrape targets and SLO rules
		// both read the registry.
		cfg.core.Metrics = telemetry.New()
	}
	var hub fleet.HubBackend
	if cfg.hubShards > 0 {
		// The loopback gateway stands in for the in-process hub: same
		// sessions, same telemetry registry, same retained event logs for
		// handler replay — plus the networked path's framing, stream
		// decode and shard routing in between.
		hub = hubnet.NewLoopback(hubnet.Config{
			Shards:   cfg.hubShards,
			KeepLogs: true,
			Registry: cfg.core.Metrics,
		})
	}
	runner, err := fleet.New(fleet.Config{
		Devices:  n,
		Seed:     cfg.core.Seed,
		Core:     cfg.core,
		Menu:     cfg.root.toNode(),
		Metrics:  cfg.core.Metrics,
		Reliable: cfg.core.Reliable,
		ARQ:      cfg.core.ARQ,
		Tracing:  cfg.core.Tracing,
		Hub:      hub,
	})
	if err != nil {
		return nil, err
	}
	f := &Fleet{runner: runner, metrics: cfg.core.Metrics}
	if cfg.core.Tracing != nil {
		f.tracing = &Tracing{tracer: cfg.core.Tracing}
	}
	if cfg.opsAddr != "" || cfg.slo != nil || cfg.history != nil {
		st, err := startOps(&cfg, f.metrics, runner.Backend().Lookup)
		if err != nil {
			return nil, err
		}
		f.ops = st
	}
	return f, nil
}

// Size returns the number of devices in the fleet.
func (f *Fleet) Size() int { return f.runner.Len() }

// OnScroll registers the fleet-wide scroll handler; device is the 0-based
// device index.
func (f *Fleet) OnScroll(fn func(device int, e Event)) { f.onScroll = fn }

// OnSelect registers the selection handler.
func (f *Fleet) OnSelect(fn func(device int, e Event)) { f.onSelect = fn }

// OnLevel registers the level-change handler.
func (f *Fleet) OnLevel(fn func(device int, e Event)) { f.onLevel = fn }

// DeviceReport is one device's outcome of a fleet run.
type DeviceReport struct {
	// Device is the 0-based device index (wire id minus one).
	Device int
	// FinalCursor is the menu cursor when the workload finished.
	FinalCursor int
	// Events counts decoded telemetry events attributed to this device.
	Events uint64
	// MissedFrames counts sequence gaps, i.e. frames lost on air.
	MissedFrames uint64
	// Sent and Delivered are the device's link-level counters.
	Sent, Delivered uint64
	// Retransmits counts extra ARQ transmissions; zero without
	// WithReliableDelivery.
	Retransmits uint64
	// Err is the device's first error, nil on success.
	Err error
}

// FleetReport aggregates a fleet run.
type FleetReport struct {
	// Devices holds the per-device outcomes in device order.
	Devices []DeviceReport
	// Frames, Delivered, Lost and Corrupted sum the link-level counters;
	// every sent frame is delivered, lost on air, or corrupted in transit.
	Frames, Delivered, Lost, Corrupted uint64
	// Events and MissedFrames sum the hub-side accounting.
	Events, MissedFrames uint64
	// Retransmits, Timeouts, QueueDrops, AcksSent, AcksLost and Resyncs
	// sum the reliable-delivery counters; all zero without
	// WithReliableDelivery.
	Retransmits, Timeouts, QueueDrops uint64
	AcksSent, AcksLost, Resyncs       uint64
	// VirtualSeconds is the summed simulated time across devices;
	// FramesPerSecond the aggregate decode throughput against it.
	VirtualSeconds  float64
	FramesPerSecond float64
	// Telemetry is the end-of-run metrics snapshot, nil unless the fleet
	// was built with WithMetrics.
	Telemetry *MetricsSnapshot
	// TraceExport is the causal-trace export handle, nil unless the fleet
	// was built with WithTracing. The run has quiesced by the time the
	// report exists, so WritePerfetto / WriteText see every recorded span.
	TraceExport *Tracing
}

// RunAll simulates every device through the scripted menu workload
// concurrently and returns the aggregate report. After the concurrent run
// completes, each device's retained event stream is replayed through the
// registered handlers in device order, so handler invocations are
// deterministic given the fleet seed.
func (f *Fleet) RunAll() (FleetReport, error) {
	f.beginRun()
	results, runErr := f.runner.RunAll()
	f.endRun()
	f.replay()

	var rep FleetReport
	for i, res := range results {
		rep.Devices = append(rep.Devices, DeviceReport{
			Device:       i,
			FinalCursor:  res.FinalCursor,
			Events:       res.Host.Events,
			MissedFrames: res.Host.MissedSeq,
			Sent:         res.Link.Sent,
			Delivered:    res.Link.Delivered,
			Retransmits:  res.ARQ.Retransmits,
			Err:          res.Err,
		})
	}
	tot := f.runner.Total(results)
	rep.Frames = tot.Sent
	rep.Delivered = tot.Delivered
	rep.Lost = tot.Lost
	rep.Corrupted = tot.Corrupted
	rep.Events = tot.Events
	rep.MissedFrames = tot.MissedSeq
	rep.Retransmits = tot.Retransmits
	rep.Timeouts = tot.Timeouts
	rep.QueueDrops = tot.QueueDrops
	rep.AcksSent = tot.AcksSent
	rep.AcksLost = tot.AcksLost
	rep.Resyncs = tot.Resyncs
	rep.VirtualSeconds = tot.VirtualSeconds
	rep.FramesPerSecond = tot.FramesPerSecond
	if f.metrics != nil {
		rep.Telemetry = f.metrics.Snapshot()
	}
	rep.TraceExport = f.tracing
	return rep, runErr
}

// replay dispatches the retained per-device event logs to the handlers.
func (f *Fleet) replay() {
	if f.onScroll == nil && f.onSelect == nil && f.onLevel == nil {
		return
	}
	for i := 0; i < f.runner.Len(); i++ {
		dev := f.runner.Device(i)
		lookup := func(index int) string {
			entries := dev.Menu.Entries()
			if index < 0 || index >= len(entries) {
				return ""
			}
			return entries[index].Title
		}
		for _, e := range f.runner.Session(i).Events() {
			var kind EventKind
			var handler func(int, Event)
			switch e.Kind {
			case rf.MsgScroll:
				kind, handler = EventScroll, f.onScroll
			case rf.MsgSelect:
				kind, handler = EventSelect, f.onSelect
			case rf.MsgLevel:
				kind, handler = EventLevel, f.onLevel
			default:
				continue
			}
			if handler == nil {
				continue
			}
			ev := Event{Kind: kind, Index: e.Index, At: e.HostTime}
			if kind != EventLevel {
				ev.Entry = lookup(e.Index)
			}
			handler(i, ev)
		}
	}
}
