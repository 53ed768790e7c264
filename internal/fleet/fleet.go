// Package fleet runs many independently seeded DistScroll devices
// concurrently against one shared host-side Hub. The paper builds "a self
// contained interaction device that can be wirelessly linked to a PC"
// (Section 3.2); this package scales that host to a population of devices,
// the way large scrolling-evaluation testbeds exercise one technique across
// many devices and configurations at once.
//
// Each device owns its virtual clock, scheduler and random stream, so a
// device's behaviour — and therefore its event stream at the hub — is a
// pure function of the fleet seed and its index, independent of goroutine
// interleaving. Only the hub's session map and aggregate counters are
// shared, and those are commutative.
package fleet

import (
	"fmt"
	"sync"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/menu"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/sim"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

// Step is one scripted action a device performs: reach for a menu entry
// with a minimum-jerk glide, dwell until the cursor settles, then
// optionally press a button.
type Step struct {
	// Entry is the target entry index at the device's current menu level.
	Entry int
	// Glide is the duration of the reach; Dwell the settle time after it.
	Glide time.Duration
	Dwell time.Duration
	// Select presses the select button after dwelling; Back presses the
	// back button. Select wins if both are set.
	Select bool
	Back   bool
}

// Script is the menu workload every device in the fleet runs.
type Script []Step

// ScriptFor returns the default workload for a menu level of n entries:
// glide far, glide back, then glide to the middle and select. It exercises
// scrolling in both directions plus a selection round-trip.
func ScriptFor(n int) Script {
	last := n - 1
	return Script{
		{Entry: last, Glide: 400 * time.Millisecond, Dwell: 300 * time.Millisecond},
		{Entry: last / 4, Glide: 400 * time.Millisecond, Dwell: 300 * time.Millisecond},
		{Entry: last / 2, Glide: 300 * time.Millisecond, Dwell: 300 * time.Millisecond, Select: true},
	}
}

// Config parameterises a fleet run.
type Config struct {
	// Devices is the fleet size.
	Devices int
	// Seed is the master seed; every device derives its own independent
	// seed from it, so the whole fleet is reproducible from one number.
	Seed uint64
	// Core is the per-device template. Seed, DeviceID and Sink are
	// overwritten per device; with Sink set a device builds no Host, so
	// the event log flag has no effect (the hub keeps the logs). The zero value means
	// core.DefaultConfig().
	Core core.Config
	// Menu is the root of the menu tree every device navigates. Navigation
	// state lives in each device's menu.Menu, so the devices share the tree,
	// which must not be edited once New has built them. Nil means a flat
	// 12-entry menu.
	Menu *menu.Node
	// Script is the workload every device runs; nil picks ScriptFor sized
	// to the menu's root level.
	Script Script
	// Workers bounds how many devices simulate concurrently; <= 0 runs
	// every device concurrently. RunAll spawns exactly this many worker
	// goroutines (capped at the fleet size) and feeds them device indices.
	Workers int
	// Reliable wraps every device's RF channel in the ARQ retransmission
	// layer and wires the hub sessions to emit cumulative acks over each
	// device's ReverseLink, so every event stream arrives complete and in
	// order even on a lossy channel.
	Reliable bool
	// ARQ tunes the reliable-delivery layer (window, timeouts, backoff);
	// zero fields take defaults. Only meaningful with Reliable set.
	ARQ rf.ARQConfig
	// Metrics instruments the whole fleet: every device's firmware and
	// link register collectors and the shared hub records per-device
	// receive counters and end-to-end latency histograms. Nil disables
	// telemetry at zero cost.
	Metrics *telemetry.Registry
	// ReportEvery, with Metrics and OnReport set, emits a registry
	// snapshot to OnReport on that wall-clock period while RunAll is in
	// flight, plus one final snapshot when the run completes. Metrics do
	// not perturb the simulation: device behaviour stays a pure function
	// of the fleet seed.
	ReportEvery time.Duration
	OnReport    func(*telemetry.Snapshot)
	// Tracing equips every device with a per-device flight recorder
	// covering its whole pipeline — firmware, ARQ, link, and the hub
	// session, all of which run on that device's scheduler goroutine. After
	// RunAll joins its workers the tracer's recorders hold the merged
	// causal trace of the run (export with WritePerfetto / WriteText). Nil
	// disables tracing at the cost of one predictable branch per hop.
	Tracing *tracing.Tracer
	// Hub overrides the host side the fleet delivers into. Nil builds the
	// default in-process core.Hub; a hubnet.Loopback routes every frame
	// through the networked gateway's full encode→decode→shard path, and
	// a hubnet.Remote forwards frames to an out-of-process server. The
	// backend must retain session event logs for handler replay to see
	// anything (hubnet honours its KeepLogs config).
	Hub HubBackend
}

// HubBackend is the host side a fleet delivers into: the subset of
// *core.Hub the runner needs, satisfied as-is by the in-process hub and
// by the networked gateway's loopback and remote modes.
type HubBackend interface {
	// Handle is the rf sink shared by every device's link.
	Handle(payload []byte, at time.Duration)
	// Session returns (creating if new) the session a device id routes
	// to; the runner pre-registers and wires tracers/acks through it.
	Session(id uint32) *core.Session
	// Lookup returns a device's session without creating one, false when
	// the device is unknown or the backend cannot see it locally (remote
	// hubs). The runner reads receive accounting through it, and the ops
	// plane's per-device drill-down serves it.
	Lookup(id uint32) (*core.Session, bool)
}

// Result is one device's outcome, deterministic given the fleet seed.
type Result struct {
	// Device is the wire id (1-based; 0 is reserved for legacy traffic).
	Device uint32
	// Err is the first firmware or scenario error, nil on success.
	Err error
	// FinalCursor is the menu cursor after the script completed.
	FinalCursor int
	// Host is this device's receive accounting at the hub.
	Host core.HostStats
	// Link is the device's channel accounting (sent/delivered/lost).
	Link rf.LinkStats
	// ARQ and Acks are the reliable-delivery accounting; zero-valued
	// unless the fleet ran with Config.Reliable.
	ARQ  rf.ARQStats
	Acks rf.ReverseStats
	// Elapsed is the virtual time the device simulated.
	Elapsed time.Duration
}

// Totals aggregates a fleet run.
type Totals struct {
	Devices    int
	Errors     int
	Sent       uint64
	Delivered  uint64
	Lost       uint64
	Corrupted  uint64
	Decoded    uint64
	Events     uint64
	MissedSeq  uint64
	Duplicates uint64
	Reordered  uint64
	BadFrames  uint64
	// Reliable-delivery aggregates (zero without Config.Reliable).
	Retransmits   uint64
	Timeouts      uint64
	QueueDrops    uint64
	RetryDrops    uint64
	AcksSent      uint64
	AcksLost      uint64
	AcksDelivered uint64
	Stale         uint64
	Resyncs       uint64
	// VirtualSeconds sums per-device simulated time; FramesPerSecond is
	// the aggregate decode throughput against that budget.
	VirtualSeconds  float64
	FramesPerSecond float64
}

// Runner owns a fleet of assembled devices and the shared hub backend.
type Runner struct {
	cfg     Config
	hub     HubBackend
	devices []*core.Device
	ids     []uint32
}

// New assembles a fleet: n devices with derived seeds and wire ids 1..n,
// all delivering telemetry into one shared hub.
func New(cfg Config) (*Runner, error) {
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 device, got %d", cfg.Devices)
	}
	if cfg.Menu == nil {
		cfg.Menu = menu.FlatMenu(12)
	}
	// core.Config holds func fields and so is not comparable; a template
	// with neither a radio nor a sample period is taken as the zero value.
	if !cfg.Core.Radio && cfg.Core.Firmware.SamplePeriod == 0 {
		cfg.Core = core.DefaultConfig()
	}

	hub := cfg.Hub
	if hub == nil {
		hub = core.NewHubWithMetrics(true, cfg.Metrics)
	}
	r := &Runner{cfg: cfg, hub: hub}
	master := sim.NewRand(cfg.Seed)
	// One method value serves every device: each would otherwise allocate
	// its own copy of the same closure.
	sink := r.hub.Handle
	for i := 0; i < cfg.Devices; i++ {
		id := uint32(i + 1)
		c := cfg.Core
		c.Seed = master.Uint64()
		c.DeviceID = id
		c.Sink = sink
		c.Metrics = cfg.Metrics
		c.Tracing = cfg.Tracing
		if cfg.Reliable {
			c.Reliable = true
			c.ARQ = cfg.ARQ
		}
		dev, err := core.NewDevice(c, cfg.Menu)
		if err != nil {
			return nil, fmt.Errorf("fleet: device %d: %w", id, err)
		}
		r.devices = append(r.devices, dev)
		r.ids = append(r.ids, id)
		// Pre-register so Devices() iterates in fleet order even for
		// devices whose first frame arrives late.
		sess := r.hub.Session(id)
		if dev.Trace != nil {
			// The hub session for this device is driven by this device's
			// delivery callbacks, so it shares the device's single-writer
			// recorder: the whole firmware→session chain lands in one
			// causally ordered buffer.
			sess.AttachTracer(dev.Trace)
		}
		if dev.Reverse != nil {
			// Close the ack loop: the hub session answers every frame from
			// this device with a cumulative ack over the device's own
			// reverse link. The ack runs inside the device's delivery
			// callback, so the round trip stays on that device's clock.
			rev := dev.Reverse
			sess.EnableReliable(func(cum uint16) { rev.SendAck(id, cum) })
		}
	}
	if r.cfg.Script == nil {
		r.cfg.Script = ScriptFor(r.devices[0].Menu.Len())
	}
	return r, nil
}

// Hub returns the shared in-process host hub, nil when the fleet runs
// against a networked backend (use Backend then).
func (r *Runner) Hub() *core.Hub {
	h, _ := r.hub.(*core.Hub)
	return h
}

// Backend returns the hub backend the fleet delivers into.
func (r *Runner) Backend() HubBackend { return r.hub }

// Len returns the fleet size.
func (r *Runner) Len() int { return len(r.devices) }

// Device returns the i-th assembled device (0-based fleet index).
func (r *Runner) Device(i int) *core.Device { return r.devices[i] }

// ID returns the wire id of the i-th device.
func (r *Runner) ID(i int) uint32 { return r.ids[i] }

// Session returns the hub session of the i-th device.
func (r *Runner) Session(i int) *core.Session { return r.hub.Session(r.ids[i]) }

// RunAll simulates every device through the script concurrently, bounded by
// Config.Workers, and returns per-device results in fleet order. The first
// device error is also returned, with all remaining devices still run to
// completion.
func (r *Runner) RunAll() ([]Result, error) {
	workers := r.cfg.Workers
	if workers <= 0 || workers > len(r.devices) {
		workers = len(r.devices)
	}
	var rep *telemetry.Reporter
	if r.cfg.Metrics != nil && r.cfg.OnReport != nil && r.cfg.ReportEvery > 0 {
		rep = telemetry.StartReporter(r.cfg.Metrics, r.cfg.ReportEvery, r.cfg.OnReport)
	}
	// A fixed worker pool pulling device indices from a channel: a
	// 100k-device fleet with Workers=32 holds 32 goroutines, not 100k parked
	// on a semaphore, keeping scheduler and stack pressure proportional to
	// the configured concurrency rather than the fleet size.
	idx := make(chan int)
	results := make([]Result, len(r.devices))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = r.runDevice(i)
			}
		}()
	}
	for i := range r.devices {
		idx <- i
	}
	close(idx)
	wg.Wait()
	// Stop emits one final snapshot after every device has drained, so the
	// last report is the complete run.
	rep.Stop()
	for _, res := range results {
		if res.Err != nil {
			return results, fmt.Errorf("fleet: device %d: %w", res.Device, res.Err)
		}
	}
	return results, nil
}

// runDevice drives one device through the script on its own virtual clock.
func (r *Runner) runDevice(i int) Result {
	dev := r.devices[i]
	id := r.ids[i]
	res := Result{Device: id}

	fail := func(err error) Result {
		res.Err = err
		r.collect(dev, id, &res)
		return res
	}

	// Let the firmware boot and the filter settle before the workload.
	if err := dev.Run(500 * time.Millisecond); err != nil {
		return fail(err)
	}
	for _, st := range r.cfg.Script {
		dist, err := dev.DistanceForEntry(st.Entry)
		if err != nil {
			return fail(fmt.Errorf("step entry %d: %w", st.Entry, err))
		}
		dev.GlideTo(dist, st.Glide)
		if err := dev.Run(st.Glide + st.Dwell); err != nil {
			return fail(err)
		}
		switch {
		case st.Select:
			dev.PressSelect()
		case st.Back:
			dev.PressBack()
		default:
			continue
		}
		if err := dev.Run(300 * time.Millisecond); err != nil {
			return fail(err)
		}
	}
	// Stop the firmware tick and drain in-flight radio deliveries so the
	// hub accounting is complete.
	dev.Stop()
	if err := dev.Run(time.Second); err != nil {
		return fail(err)
	}
	if dev.ARQ != nil {
		// Reliable drain: keep the clock moving until every outstanding
		// frame is acked (or abandoned by the retry budget). The bound
		// comfortably covers MaxRTO-paced retransmits of a full window.
		for i := 0; i < 40 && dev.ARQ.Outstanding() > 0; i++ {
			if err := dev.Run(250 * time.Millisecond); err != nil {
				return fail(err)
			}
		}
		// The window can empty while final retransmitted copies (acked via
		// an earlier copy) are still on the air — under heavy retransmission
		// the half-duplex airtime queue can stretch seconds past the last
		// ack. Flush until every sent frame is accounted for so the loss
		// check below is exact.
		for i := 0; i < 80; i++ {
			s := transportStats(dev)
			if s.Sent == s.Delivered+s.Lost+s.Corrupted {
				break
			}
			if err := dev.Run(250 * time.Millisecond); err != nil {
				return fail(err)
			}
		}
		if dev.Trace != nil && dev.ARQ.Outstanding() == 0 {
			// Post-drain sequence audit: with the window empty, every seq
			// the firmware used was delivered or abandoned-with-notice, so
			// the session must be expecting exactly the next fresh seq. A
			// mismatch is a frame that vanished without a skip notice — the
			// bug class the flight recorder exists to catch.
			await := r.hub.Session(id).AwaitSeq()
			if exp := uint16(dev.ARQ.Stats().Enqueued); await != exp {
				dev.Trace.Anomaly(tracing.HopSessionGap, await, dev.Clock.Now(),
					uint32(exp-await), 0,
					fmt.Sprintf("seq gap after drain: session awaits seq %d, sender used 0..%d", await, exp-1))
			}
		}
	}
	r.collect(dev, id, &res)
	// With the channel drained, every frame must be accounted for exactly
	// once: delivered to the hub, lost on air, or corrupted and rejected
	// by CRC. A violation means the link or decoder is double- or
	// under-counting, so surface it as a device error.
	if s := res.Link; s.Sent != s.Delivered+s.Lost+s.Corrupted {
		res.Err = fmt.Errorf("loss accounting: sent %d != delivered %d + lost %d + corrupted %d",
			s.Sent, s.Delivered, s.Lost, s.Corrupted)
	}
	return res
}

// transportStats reads the channel accounting of whichever transport the
// device was assembled with (*rf.Link, *rf.Pipe, and any custom backend
// that exposes link-shaped counters).
func transportStats(dev *core.Device) rf.LinkStats {
	if tr, ok := dev.Transport.(interface{ Stats() rf.LinkStats }); ok {
		return tr.Stats()
	}
	return rf.LinkStats{}
}

func (r *Runner) collect(dev *core.Device, id uint32, res *Result) {
	res.FinalCursor = dev.Cursor()
	res.Elapsed = dev.Clock.Now()
	if s, ok := r.hub.Lookup(id); ok {
		res.Host = s.Stats()
	}
	res.Link = transportStats(dev)
	if dev.ARQ != nil {
		res.ARQ = dev.ARQ.Stats()
	}
	if dev.Reverse != nil {
		res.Acks = dev.Reverse.Stats()
	}
}

// Total aggregates per-device results into fleet-wide counters.
func (r *Runner) Total(results []Result) Totals {
	var t Totals
	t.Devices = len(results)
	for _, res := range results {
		if res.Err != nil {
			t.Errors++
		}
		t.Sent += res.Link.Sent
		t.Delivered += res.Link.Delivered
		t.Lost += res.Link.Lost
		t.Corrupted += res.Link.Corrupted
		t.Decoded += res.Host.Decoded
		t.Events += res.Host.Events
		t.MissedSeq += res.Host.MissedSeq
		t.Duplicates += res.Host.Duplicates
		t.Reordered += res.Host.Reordered
		t.BadFrames += res.Host.BadFrames
		t.Retransmits += res.ARQ.Retransmits
		t.Timeouts += res.ARQ.Timeouts
		t.QueueDrops += res.ARQ.QueueDrops
		t.RetryDrops += res.ARQ.RetryDrops
		t.AcksSent += res.Acks.AcksSent
		t.AcksLost += res.Acks.AcksLost
		t.AcksDelivered += res.Acks.AcksDelivered
		t.Stale += res.Host.Stale
		t.Resyncs += res.Host.Resyncs
		t.VirtualSeconds += res.Elapsed.Seconds()
	}
	if t.VirtualSeconds > 0 {
		t.FramesPerSecond = float64(t.Decoded) / t.VirtualSeconds
	}
	return t
}
