package core

import (
	"fmt"
	"time"

	"github.com/hcilab/distscroll/internal/buttons"
	"github.com/hcilab/distscroll/internal/firmware"
	"github.com/hcilab/distscroll/internal/hand"
	"github.com/hcilab/distscroll/internal/mapping"
	"github.com/hcilab/distscroll/internal/menu"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/sim"
	"github.com/hcilab/distscroll/internal/smartits"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

// Config assembles a complete system.
type Config struct {
	Seed uint64
	// DeviceID identifies this device on the wire (frame v1) so a Hub can
	// demultiplex a fleet. Zero is the conventional single-device id.
	DeviceID uint32
	Board    smartits.Config
	Firmware firmware.Config
	Link     rf.LinkConfig
	// Radio disables the RF link when false (bench-only devices).
	Radio bool
	// KeepEventLog retains every host event for inspection.
	KeepEventLog bool
	// Sink overrides where the link delivers decoded payloads. Nil keeps
	// the classic single-device wiring (the device's own Host); a fleet
	// passes the shared Hub's Handle.
	Sink func(payload []byte, at time.Duration)
	// Transport, when set, builds the device→host channel instead of the
	// default lossy rf.Link — e.g. an rf.Pipe for an ideal in-process
	// channel, or a real network backend.
	Transport func(sched sim.EventScheduler, rng *sim.Rand, sink func(payload []byte, at time.Duration)) (rf.Transport, error)
	// Scheduler, when set, builds the event scheduler driving this device
	// instead of the default value-heap sim.Scheduler — e.g.
	// sim.NewHeapScheduler for the reference implementation. The fleet
	// differential test uses this hook to prove the two produce
	// byte-identical results.
	Scheduler func(clock *sim.Clock) sim.EventScheduler
	// Reliable wraps the device→host channel in the ARQ retransmission
	// layer and opens the host→device ack back-channel (rf.ReverseLink),
	// guaranteeing in-order delivery across a lossy link. For the classic
	// single-device wiring the device's own Host is switched into reliable
	// receive mode automatically; a fleet wires the shared Hub's sessions
	// instead (see fleet.New). Ignored without a radio.
	Reliable bool
	// ARQ tunes the reliable-delivery layer; zero fields take defaults.
	// Only meaningful with Reliable set.
	ARQ rf.ARQConfig
	// Metrics, when set, instruments the assembled device: the firmware
	// and link register pull collectors, and — for the classic wiring
	// where the device's own Host consumes frames — the host records
	// receive counters and end-to-end latency. Nil costs nothing.
	Metrics *telemetry.Registry
	// Tracing, when set, equips the device with a per-device flight
	// recorder threaded through every pipeline stage (firmware, ARQ, link,
	// and — for the classic wiring — the device's own Host session). A
	// fleet attaches its hub sessions to the same recorder instead, since
	// one device's whole pipeline runs on its scheduler goroutine. Nil
	// costs a predictable branch per hop.
	Tracing *tracing.Tracer
}

// DefaultConfig is the prototype system.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		Board:        smartits.DefaultConfig(),
		Firmware:     firmware.DefaultConfig(),
		Link:         rf.DefaultLinkConfig(),
		Radio:        true,
		KeepEventLog: true,
	}
}

// Device is the assembled DistScroll: board, firmware, radio and host
// driver sharing one virtual clock.
type Device struct {
	cfg Config

	Clock     *sim.Clock
	Scheduler sim.EventScheduler
	Rand      *sim.Rand
	Board     *smartits.Board
	Firmware  *firmware.Firmware
	// Transport is the device→host channel; Link is the same object when
	// the transport is the default lossy RF model, nil otherwise.
	Transport rf.Transport
	Link      *rf.Link
	// ARQ and Reverse are the reliable-delivery sender and the ack
	// back-channel; nil unless the device was assembled with
	// Config.Reliable.
	ARQ     *rf.ARQ
	Reverse *rf.ReverseLink
	Host    *Host
	Menu    *menu.Menu
	// Trace is the device's flight recorder (nil unless Config.Tracing):
	// every pipeline stage of this device records onto it, and a fleet
	// attaches the hub session for this device to it too.
	Trace *tracing.Recorder

	tickCancel func()
	stepErr    error
}

// NewDevice assembles a device navigating the given menu tree root.
func NewDevice(cfg Config, root *menu.Node) (*Device, error) {
	rng := sim.NewRand(cfg.Seed)
	clock := sim.NewClock(0)
	var sched sim.EventScheduler
	if cfg.Scheduler != nil {
		sched = cfg.Scheduler(clock)
	} else {
		sched = sim.NewScheduler(clock)
	}

	board, err := smartits.Assemble(cfg.Board, rng.Split())
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m, err := menu.New(root)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	d := &Device{
		cfg:       cfg,
		Clock:     clock,
		Scheduler: sched,
		Rand:      rng,
		Board:     board,
		Menu:      m,
	}
	if cfg.Tracing != nil {
		d.Trace = cfg.Tracing.NewRecorder(fmt.Sprintf("device-%d", cfg.DeviceID), cfg.DeviceID)
	}
	if cfg.Metrics != nil && cfg.Sink == nil {
		// Classic wiring: this device's own Host consumes the frames, so
		// it owns the receive-side instrumentation. In a fleet the shared
		// Hub does, and the per-device Host stays plain.
		d.Host = NewHostWithMetrics(cfg.KeepEventLog, cfg.Metrics)
	} else {
		d.Host = NewHost(cfg.KeepEventLog)
	}
	if d.Trace != nil && cfg.Sink == nil {
		// Classic wiring: this device's own Host session demuxes the
		// frames, so it records the hub.demux leg of the trace. A fleet's
		// shared hub sessions are attached by fleet.New instead.
		d.Host.AttachTracer(d.Trace)
	}

	sink := cfg.Sink
	if sink == nil {
		sink = d.Host.Handle
	}
	var tx firmware.Sender
	if cfg.Radio {
		linkRNG := rng.Split()
		if cfg.Transport != nil {
			tr, err := cfg.Transport(sched, linkRNG, sink)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			d.Transport = tr
			if l, ok := tr.(*rf.Link); ok {
				d.Link = l
			}
			tx = tr
		} else {
			link, err := rf.NewLink(cfg.Link, sched, linkRNG, sink)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			d.Link = link
			d.Transport = link
			tx = link
		}
		if d.Link != nil {
			d.Link.SetTracer(d.Trace)
		}
		if cfg.Reliable {
			// The ARQ wraps the channel and the ReverseLink closes the ack
			// loop. Both draw from their own derived random streams, taken
			// after the link's, so a non-reliable assembly sees exactly the
			// same streams as before.
			arq, err := rf.NewARQ(cfg.ARQ, sched, rng.Split(), tx)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			rev, err := rf.NewReverseLink(cfg.Link, sched, rng.Split(), arq.HandleAck)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			arq.SetTracer(d.Trace)
			d.ARQ = arq
			d.Reverse = rev
			tx = arq
			if cfg.Sink == nil {
				// Classic wiring: this device's own Host receives the
				// stream, so it also emits the acks. Fleet hubs wire their
				// sessions through Device.Reverse instead.
				devID := cfg.DeviceID
				d.Host.EnableReliable(func(cum uint16) { rev.SendAck(devID, cum) })
			}
		}
	}

	cfg.Firmware.DeviceID = cfg.DeviceID
	cfg.Firmware.Trace = d.Trace
	fw, err := firmware.New(cfg.Firmware, board, m, tx)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	d.Firmware = fw
	if cfg.Metrics != nil {
		cfg.Metrics.RegisterCollector(fw.Collect)
		if d.Link != nil {
			cfg.Metrics.RegisterCollector(d.Link.Collect)
		}
		if d.ARQ != nil {
			cfg.Metrics.RegisterCollector(d.ARQ.Collect)
		}
		if d.Reverse != nil {
			cfg.Metrics.RegisterCollector(d.Reverse.Collect)
		}
	}

	// Drive the firmware loop on the scheduler. The period is asked from
	// the firmware after every cycle so power-save can slow the cadence.
	active := true
	var tick func(at time.Duration)
	tick = func(at time.Duration) {
		if !active || d.stepErr != nil {
			return
		}
		if err := fw.Step(at); err != nil {
			d.stepErr = err
			sched.Stop()
			return
		}
		sched.At(at+fw.TickPeriod(), tick)
	}
	sched.After(fw.TickPeriod(), tick)
	d.tickCancel = func() { active = false }
	return d, nil
}

// Run advances the simulation by d of virtual time, executing firmware
// cycles and radio deliveries in order. It returns any firmware error.
func (d *Device) Run(dur time.Duration) error {
	horizon := d.Clock.Now() + dur
	if err := d.Scheduler.Run(horizon); err != nil && d.stepErr == nil {
		return err
	}
	return d.stepErr
}

// Stop cancels the firmware tick; after Stop, Run drains only pending
// radio deliveries.
func (d *Device) Stop() {
	if d.tickCancel != nil {
		d.tickCancel()
		d.tickCancel = nil
	}
}

// Err returns the first firmware error, if any.
func (d *Device) Err() error { return d.stepErr }

// SetDistance positions the device at the given body distance in cm —
// the environment hook the hand model drives.
func (d *Device) SetDistance(cm float64) { d.Board.SetDistance(cm) }

// Distance returns the current physical distance.
func (d *Device) Distance() float64 { return d.Board.Distance() }

// GlideTo schedules a smooth minimum-jerk motion from the current distance
// to target cm over the given duration. A single self-rescheduling callback
// samples the trajectory every 10 ms and stops exactly at the end of the
// motion, where the trajectory pins the distance to the target.
//
// Each callback fires one nanosecond ahead of its nominal grid instant but
// applies the position computed at that instant: the trajectory models a
// continuously moving hand, so a sensor sample landing exactly on a glide
// grid point must observe the hand's position at that instant — not the
// previous step's — regardless of scheduler insertion order.
func (d *Device) GlideTo(targetCm float64, over time.Duration) {
	start := d.Clock.Now()
	if over <= 0 {
		d.Scheduler.At(start, func(time.Duration) { d.SetDistance(targetCm) })
		return
	}
	traj := hand.NewMinJerk(d.Distance(), targetCm, start, over)
	end := start + over
	const step = 10 * time.Millisecond
	const lead = time.Nanosecond
	nominal := start + step
	if nominal > end {
		nominal = end
	}
	var move func(time.Duration)
	move = func(time.Duration) {
		at := nominal
		d.SetDistance(traj.Position(at))
		if at >= end {
			return
		}
		nominal += step
		if nominal > end {
			nominal = end
		}
		d.Scheduler.At(nominal-lead, move)
	}
	d.Scheduler.At(nominal-lead, move)
}

// PressSelect taps the select (thumb) button, advancing virtual time past
// the debounce so the press registers on the next firmware cycle. The
// assignment is read live from the firmware, which may have mirrored the
// roles for a left-handed grip.
func (d *Device) PressSelect() {
	d.tap(d.Firmware.SelectButton(), buttons.TopRight)
}

// PressBack taps the back button.
func (d *Device) PressBack() {
	d.tap(d.Firmware.BackButton(), buttons.LeftUpper)
}

func (d *Device) tap(id, fallback buttons.ID) {
	if id == 0 {
		id = fallback
	}
	now := d.Clock.Now()
	d.Board.Pad.Set(id, true, now)
	release := now + buttons.DefaultDebounce + 40*time.Millisecond
	d.Scheduler.At(release, func(at time.Duration) {
		d.Board.Pad.Set(id, false, at)
	})
}

// Cursor returns the current menu cursor index.
func (d *Device) Cursor() int { return d.Menu.Cursor() }

// Mapper returns the active island mapper.
func (d *Device) Mapper() *mapping.Mapper { return d.Firmware.Mapper() }

// DistanceForEntry returns the physical distance that selects the given
// entry of the current level.
func (d *Device) DistanceForEntry(index int) (float64, error) {
	return d.Firmware.Mapper().DistanceFor(index)
}

// TopDisplay returns the rendered top display.
func (d *Device) TopDisplay() string { return d.Board.Top.Render() }

// BottomDisplay returns the rendered bottom (debug) display.
func (d *Device) BottomDisplay() string { return d.Board.Bottom.Render() }
