// Package adc models the 10-bit successive-approximation analog-to-digital
// converter of the Microchip PIC 18F452, which digitises the GP2D120 and
// ADXL311 outputs at the Smart-Its input ports (paper Figure 4: "measured
// analog voltage at Smart-Its input port").
package adc

import (
	"fmt"

	"github.com/hcilab/distscroll/internal/sim"
)

// Converter characteristics.
const (
	// Bits is the converter resolution.
	Bits = 10
	// MaxCode is the largest output code.
	MaxCode = 1<<Bits - 1
	// DefaultVref is the default positive reference voltage.
	DefaultVref = 5.0
	// MaxChannels is the PIC 18F452's analog input count (AN0..AN7).
	MaxChannels = 8
)

// Source is an analog signal the converter can sample.
type Source func() float64

// Converter is a multi-channel 10-bit ADC.
type Converter struct {
	vref float64
	// sources holds the first n channels' inputs; a fixed array keeps the
	// converter one flat value.
	sources [MaxChannels]Source
	n       int
	rng     *sim.Rand
	// offsetLSB and gainErr model static converter error (datasheet:
	// < ±1 LSB integral error for the PIC 18F452 module).
	offsetLSB float64
	gainErr   float64
	samples   uint64
}

// New returns a converter with the given reference voltage and channel
// count (1..MaxChannels). rng may be nil to disable sampling noise.
func New(vref float64, channels int, rng *sim.Rand) (*Converter, error) {
	c := new(Converter)
	if err := c.Init(vref, channels, rng); err != nil {
		return nil, err
	}
	return c, nil
}

// Init builds the converter New describes in place at c, so an owner can
// hold its Converter by value.
func (c *Converter) Init(vref float64, channels int, rng *sim.Rand) error {
	if vref <= 0 {
		return fmt.Errorf("adc: vref must be positive, got %g", vref)
	}
	if channels <= 0 || channels > MaxChannels {
		return fmt.Errorf("adc: channel count %d not in [1,%d]", channels, MaxChannels)
	}
	*c = Converter{vref: vref, n: channels, rng: rng}
	if rng != nil {
		c.offsetLSB = rng.Uniform(-0.5, 0.5)
		c.gainErr = rng.Uniform(-0.001, 0.001)
	}
	return nil
}

// Connect attaches an analog source to a channel.
func (c *Converter) Connect(channel int, src Source) error {
	if channel < 0 || channel >= c.n {
		return fmt.Errorf("adc: channel %d out of range [0,%d)", channel, c.n)
	}
	c.sources[channel] = src
	return nil
}

// Channels reports the number of channels.
func (c *Converter) Channels() int { return c.n }

// Samples reports how many conversions have been performed.
func (c *Converter) Samples() uint64 { return c.samples }

// Vref returns the reference voltage.
func (c *Converter) Vref() float64 { return c.vref }

// Read performs one conversion on the given channel and returns the 10-bit
// code. An unconnected channel reads as a floating input near zero.
func (c *Converter) Read(channel int) (uint16, error) {
	if channel < 0 || channel >= c.n {
		return 0, fmt.Errorf("adc: channel %d out of range [0,%d)", channel, c.n)
	}
	c.samples++
	v := 0.0
	if src := c.sources[channel]; src != nil {
		v = src()
	}
	code := v / c.vref * float64(MaxCode)
	code *= 1 + c.gainErr
	code += c.offsetLSB
	if c.rng != nil {
		// ±0.5 LSB quantisation/thermal noise.
		code += c.rng.Uniform(-0.5, 0.5)
	}
	if code < 0 {
		code = 0
	}
	if code > MaxCode {
		code = MaxCode
	}
	return uint16(code), nil
}

// Voltage converts a code back to volts using the reference.
func (c *Converter) Voltage(code uint16) float64 {
	return float64(code) / float64(MaxCode) * c.vref
}
