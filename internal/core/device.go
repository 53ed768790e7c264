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
	// KeepEventLog retains every event the device's own Host receives for
	// inspection; it has no effect with Sink set.
	KeepEventLog bool
	// Sink overrides where the link delivers decoded payloads. Nil keeps
	// the classic single-device wiring (the device's own Host); a fleet
	// passes the shared Hub's Handle, and the device then builds no Host.
	Sink func(payload []byte, at time.Duration)
	// Transport, when set, builds the device→host channel instead of the
	// default lossy rf.Link — e.g. an rf.Pipe for an ideal in-process
	// channel, or a real network backend. It receives the device's own
	// *sim.Scheduler, the one scheduler every timer of the device runs on.
	Transport func(sched *sim.Scheduler, rng *sim.Rand, sink func(payload []byte, at time.Duration)) (rf.Transport, error)
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
	Scheduler *sim.Scheduler
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
	// Host is the device's own host driver, which its link delivers to in
	// the classic single-device wiring. It is nil when Config.Sink routes
	// the frames elsewhere (a fleet's shared hub): nothing would feed it.
	Host *Host
	Menu *menu.Menu
	// Trace is the device's flight recorder (nil unless Config.Tracing):
	// every pipeline stage of this device records onto it, and a fleet
	// attaches the hub session for this device to it too.
	Trace *tracing.Recorder

	// tick is the firmware-loop callback, built once; stopped cancels it.
	tick    func(at time.Duration)
	stopped bool
	stepErr error

	// parts holds what the device owns by value: the exported pointers
	// above point into it, so assembling a device is one allocation (two
	// with Config.Reliable, see reliableParts). Each part is built in
	// place by its package's Init, and parts keep pointers to each other
	// and to themselves (the scheduler's clock, the board's ADC wiring,
	// the link's callbacks), so a Device must not be copied.
	parts struct {
		clock    sim.Clock
		sched    sim.Scheduler
		board    smartits.Board
		menu     menu.Menu
		firmware firmware.Firmware
		link     rf.Link
		// rand is the device's stream; boardRand and linkRand are split
		// from it in that order. The board holds its components' streams
		// itself, reliableParts the ARQ's and the reverse link's, which
		// are split next.
		rand, boardRand, linkRand sim.Rand
	}
}

// reliableParts is a reliable device's second allocation: the ARQ sender,
// the ack back-channel and their streams. Keeping it out of Device.parts
// spares a device without ARQ its ~600 B.
type reliableParts struct {
	arq                  rf.ARQ
	reverse              rf.ReverseLink
	arqRand, reverseRand sim.Rand
}

// NewDevice assembles a device navigating the given menu tree root.
func NewDevice(cfg Config, root *menu.Node) (*Device, error) {
	d := &Device{cfg: cfg}
	p := &d.parts
	rng := &p.rand
	rng.Seed(cfg.Seed)
	sched := &p.sched
	sched.Init(&p.clock)
	d.Rand, d.Clock, d.Scheduler = rng, &p.clock, sched

	rng.SplitInto(&p.boardRand)
	if err := p.board.Init(cfg.Board, &p.boardRand); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	d.Board = &p.board
	if err := p.menu.Init(root); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	d.Menu = &p.menu
	if cfg.Tracing != nil {
		d.Trace = cfg.Tracing.NewRecorder(fmt.Sprintf("device-%d", cfg.DeviceID), cfg.DeviceID)
	}

	sink := cfg.Sink
	if sink == nil {
		// Classic wiring: this device's own Host consumes the frames, so
		// it owns the receive-side instrumentation and records the
		// hub.demux leg of the trace. A fleet's shared hub does both.
		d.Host = NewHostWithMetrics(cfg.KeepEventLog, cfg.Metrics)
		if d.Trace != nil {
			d.Host.AttachTracer(d.Trace)
		}
		sink = d.Host.Handle
	}
	var tx firmware.Sender
	if cfg.Radio {
		linkRNG := &p.linkRand
		rng.SplitInto(linkRNG)
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
			if err := p.link.Init(cfg.Link, sched, linkRNG, sink); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			d.Link = &p.link
			d.Transport = d.Link
			tx = d.Link
		}
		if d.Link != nil {
			d.Link.SetTracer(d.Trace)
		}
		if cfg.Reliable {
			// The ARQ wraps the channel and the ReverseLink closes the ack
			// loop. Both draw from their own derived random streams, taken
			// after the link's, so a non-reliable assembly sees exactly the
			// same streams as before.
			rp := new(reliableParts)
			arq, rev := &rp.arq, &rp.reverse
			rng.SplitInto(&rp.arqRand)
			if err := arq.Init(cfg.ARQ, sched, &rp.arqRand, tx); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			rng.SplitInto(&rp.reverseRand)
			if err := rev.Init(cfg.Link, sched, &rp.reverseRand, arq.HandleAck); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			arq.SetTracer(d.Trace)
			d.ARQ = arq
			d.Reverse = rev
			tx = arq
			if d.Host != nil {
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
	fw := &p.firmware
	if err := fw.Init(cfg.Firmware, d.Board, d.Menu, tx); err != nil {
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
	d.tick = d.step
	sched.After(fw.TickPeriod(), d.tick)
	return d, nil
}

// step runs one firmware cycle and schedules the next.
func (d *Device) step(at time.Duration) {
	if d.stopped || d.stepErr != nil {
		return
	}
	if err := d.Firmware.Step(at); err != nil {
		d.stepErr = err
		d.Scheduler.Stop()
		return
	}
	d.Scheduler.At(at+d.Firmware.TickPeriod(), d.tick)
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
func (d *Device) Stop() { d.stopped = true }

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
