// Package smartits models the Smart-Its prototyping platform (Gellersen et
// al., IEEE Pervasive 2004) on which the DistScroll is built: a base board
// carrying the PIC 18F452 microcontroller, RF module, serial/programmer
// connector and analog input ports, plus an add-on board carrying the two
// displays, the distance sensor wiring, the acceleration sensor and the
// contrast potentiometer (paper Figures 2 and 3).
package smartits

import (
	"errors"
	"fmt"

	"github.com/hcilab/distscroll/internal/adc"
	"github.com/hcilab/distscroll/internal/adxl311"
	"github.com/hcilab/distscroll/internal/buttons"
	"github.com/hcilab/distscroll/internal/display"
	"github.com/hcilab/distscroll/internal/gp2d120"
	"github.com/hcilab/distscroll/internal/i2c"
	"github.com/hcilab/distscroll/internal/serial"
	"github.com/hcilab/distscroll/internal/sim"
)

// PIC 18F452 resource envelope (paper Section 4: "8 bit microcontroller
// with 32 kbytes of flash memory and 1.5 kbytes RAM").
const (
	FlashBytes = 32 * 1024
	RAMBytes   = 1536
	// CPUMHz is the instruction clock of the Smart-Its configuration.
	CPUMHz = 10
)

// ADC channel assignments on the add-on board connector.
const (
	ChanDistance  = 0 // GP2D120 output (the black cables of Figure 3)
	ChanAccelX    = 1
	ChanAccelY    = 2
	ChanBattery   = 3
	ChanDistance2 = 4 // second GP2D120 (fitted, unused by the prototype)
	NumChannels   = 5
)

// I2C addresses of the two displays.
const (
	AddrTopDisplay    = 0x3C
	AddrBottomDisplay = 0x3D
)

// ErrNotAssembled is returned when using a board before Assemble.
var ErrNotAssembled = errors.New("smartits: board not assembled")

// Config selects the board variant.
type Config struct {
	Sensor  gp2d120.Config
	Surface gp2d120.Surface
	Layout  buttons.Layout
	// SecondSensor mirrors the prototype, which "comprises two distance
	// sensors (only one is used in our experiments so far)".
	SecondSensor bool
	// BatteryVolts is the 9 V block battery level.
	BatteryVolts float64
}

// DefaultConfig is the prototype as built.
func DefaultConfig() Config {
	return Config{
		Sensor:       gp2d120.DefaultConfig(),
		Surface:      gp2d120.DefaultSurface(),
		Layout:       buttons.PrototypeLayout(),
		SecondSensor: true,
		BatteryVolts: 9.0,
	}
}

// Board is the assembled Smart-Its base + add-on board pair.
type Board struct {
	cfg Config

	Sensor  *gp2d120.Sensor
	Sensor2 *gp2d120.Sensor // fitted but unused, as in the prototype
	Accel   *adxl311.Accel
	ADC     *adc.Converter
	Bus     *i2c.Bus
	Top     *display.Display
	Bottom  *display.Display
	Pad     *buttons.Pad

	// Programming path (serial/programmer connector of Figure 3); nil
	// until AttachProgrammer or DownloadFirmware is used.
	Flash      *serial.Flash
	Bootloader *serial.Bootloader
	SerialHost *serial.Port

	// distanceCm is the physical distance between the sensor face and the
	// user's body; the environment (hand model) drives it.
	distanceCm float64
	battery    float64
	contrast   byte // potentiometer position 0..63

	// parts holds the components by value: the exported pointers above
	// point into it, so a board is one allocation. The ADC channels and
	// the bus keep pointers into the board, so a Board must not be copied
	// once assembled.
	parts struct {
		sensor, sensor2 gp2d120.Sensor
		accel           adxl311.Accel
		adc             adc.Converter
		bus             i2c.Bus
		top, bottom     display.Display
		pad             buttons.Pad
		// The components' streams, split from the board's in this order.
		sensorRand, sensor2Rand, accelRand, adcRand sim.Rand
	}
}

// Assemble builds and wires a board. rng may be nil for a fully
// deterministic board.
func Assemble(cfg Config, rng *sim.Rand) (*Board, error) {
	b := new(Board)
	if err := b.Init(cfg, rng); err != nil {
		return nil, err
	}
	return b, nil
}

// Init assembles and wires the board Assemble describes in place at b, so
// an owner can hold its Board by value.
func (b *Board) Init(cfg Config, rng *sim.Rand) error {
	if cfg.BatteryVolts <= 0 {
		cfg.BatteryVolts = 9.0
	}
	*b = Board{
		cfg:        cfg,
		distanceCm: 15, // comfortable mid-range hold
		battery:    cfg.BatteryVolts,
		contrast:   32,
	}
	p := &b.parts
	var sensorRng, sensor2Rng, accelRng, adcRng *sim.Rand
	if rng != nil {
		sensorRng, sensor2Rng, accelRng, adcRng = &p.sensorRand, &p.sensor2Rand, &p.accelRand, &p.adcRand
		rng.SplitInto(sensorRng)
		rng.SplitInto(sensor2Rng)
		rng.SplitInto(accelRng)
		rng.SplitInto(adcRng)
	}

	if err := p.sensor.Init(cfg.Sensor, cfg.Surface, sensorRng); err != nil {
		return fmt.Errorf("smartits: sensor: %w", err)
	}
	b.Sensor = &p.sensor
	p.accel.Init(accelRng)
	b.Accel = &p.accel
	p.bus.Init(0)
	b.Bus = &p.bus
	p.top.Init()
	b.Top = &p.top
	p.bottom.Init()
	b.Bottom = &p.bottom
	p.pad.Init(cfg.Layout)
	b.Pad = &p.pad
	if cfg.SecondSensor {
		if err := p.sensor2.Init(cfg.Sensor, cfg.Surface, sensor2Rng); err != nil {
			return fmt.Errorf("smartits: second sensor: %w", err)
		}
		b.Sensor2 = &p.sensor2
	}

	if err := p.adc.Init(adc.DefaultVref, NumChannels, adcRng); err != nil {
		return fmt.Errorf("smartits: adc: %w", err)
	}
	b.ADC = &p.adc
	conv := b.ADC
	wiring := [...]struct {
		ch  int
		src adc.Source
	}{
		{ChanDistance, func() float64 { return b.Sensor.Sample(b.distanceCm) }},
		{ChanAccelX, b.Accel.VoltageX},
		{ChanAccelY, b.Accel.VoltageY},
		{ChanBattery, func() float64 { return b.battery / 2 }}, // divider
	}
	for _, w := range wiring {
		if err := conv.Connect(w.ch, w.src); err != nil {
			return fmt.Errorf("smartits: wire channel %d: %w", w.ch, err)
		}
	}
	if b.Sensor2 != nil {
		// The second sensor looks at the same scene with independent
		// noise — the dual-sensor firmware mode averages the two.
		err := conv.Connect(ChanDistance2, func() float64 { return b.Sensor2.Sample(b.distanceCm) })
		if err != nil {
			return fmt.Errorf("smartits: wire channel %d: %w", ChanDistance2, err)
		}
	}

	if err := b.Bus.Attach(AddrTopDisplay, b.Top); err != nil {
		return fmt.Errorf("smartits: top display: %w", err)
	}
	if err := b.Bus.Attach(AddrBottomDisplay, b.Bottom); err != nil {
		return fmt.Errorf("smartits: bottom display: %w", err)
	}
	return nil
}

// SetDistance sets the physical sensor-to-body distance in cm.
func (b *Board) SetDistance(cm float64) {
	if cm < 0 {
		cm = 0
	}
	b.distanceCm = cm
}

// Distance returns the current physical distance in cm.
func (b *Board) Distance() float64 { return b.distanceCm }

// SetContrastPot turns the contrast potentiometer (0..63) and propagates it
// to both displays over I2C, like the trimmer next to the connector.
func (b *Board) SetContrastPot(level byte) error {
	b.contrast = level
	for _, addr := range []byte{AddrTopDisplay, AddrBottomDisplay} {
		if err := b.Bus.Write(addr, []byte{display.CmdContrast, level}); err != nil {
			return fmt.Errorf("smartits: contrast: %w", err)
		}
	}
	return nil
}

// Battery returns the battery voltage.
func (b *Board) Battery() float64 { return b.battery }

// DrainBattery lowers the battery voltage by dv (for long-session tests).
func (b *Board) DrainBattery(dv float64) {
	b.battery -= dv
	if b.battery < 0 {
		b.battery = 0
	}
}

// SelfCheck verifies the Figure-2 topology: every component must be
// reachable over its bus or channel. It returns the first wiring fault.
func (b *Board) SelfCheck() error {
	if b.ADC == nil || b.Bus == nil {
		return ErrNotAssembled
	}
	for ch := 0; ch < NumChannels; ch++ {
		if _, err := b.ADC.Read(ch); err != nil {
			return fmt.Errorf("smartits: self-check adc channel %d: %w", ch, err)
		}
	}
	for _, addr := range []byte{AddrTopDisplay, AddrBottomDisplay} {
		if !b.Bus.Probe(addr) {
			return fmt.Errorf("smartits: self-check: no display at %#x", addr)
		}
		if err := b.Bus.Write(addr, []byte{display.CmdStatus}); err != nil {
			return fmt.Errorf("smartits: self-check: %w", err)
		}
		if _, err := b.Bus.Read(addr, 4); err != nil {
			return fmt.Errorf("smartits: self-check: %w", err)
		}
	}
	if len(b.Pad.Layout().Buttons) == 0 {
		return errors.New("smartits: self-check: no buttons")
	}
	return nil
}
