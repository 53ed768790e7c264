// Package adxl311 models the Analog Devices ADXL311JE two-axis
// accelerometer present on the DistScroll add-on board (paper Section 4.3).
// The prototype left it unused, but the paper plans to "include the
// acceleration sensor in the final version of the DistScroll to get
// information about the orientation of the device in 3D space"; this model
// powers both that extension and the tilt-scrolling baseline technique.
package adxl311

import (
	"fmt"
	"math"

	"github.com/hcilab/distscroll/internal/sim"
)

// Datasheet-style constants.
const (
	// SupplyVolts is the nominal supply; the zero-g output sits at half.
	SupplyVolts = 3.0
	// ZeroGVolts is the output at 0 g.
	ZeroGVolts = SupplyVolts / 2
	// SensitivityVPerG is the output change per g of acceleration.
	SensitivityVPerG = 0.174
	// NoiseSD is the RMS output noise in volts.
	NoiseSD = 0.002
	// GravityG is the static acceleration magnitude in g.
	GravityG = 1.0
)

// Orientation is the device attitude in radians. Pitch tilts the top of the
// device towards (+) or away from (−) the user; roll tilts it sideways.
type Orientation struct {
	Pitch float64
	Roll  float64
}

// Accel is a two-axis accelerometer sensing the static gravity projection
// on its X (pitch) and Y (roll) axes, plus dynamic acceleration supplied by
// the motion model.
type Accel struct {
	orientation Orientation
	dynX, dynY  float64 // dynamic acceleration in g
	rng         *sim.Rand
}

// Init resets a in place to a level, motionless accelerometer drawing
// noise from rng; rng may be nil for a noiseless instance. A board holds
// its Accel by value and builds it with Init.
func (a *Accel) Init(rng *sim.Rand) {
	*a = Accel{rng: rng}
}

// SetOrientation updates the device attitude.
func (a *Accel) SetOrientation(o Orientation) { a.orientation = o }

// Orientation returns the current attitude.
func (a *Accel) Orientation() Orientation { return a.orientation }

// SetDynamic sets the dynamic (motion-induced) acceleration in g applied on
// top of gravity.
func (a *Accel) SetDynamic(gx, gy float64) { a.dynX, a.dynY = gx, gy }

// GX returns the acceleration sensed on the X axis in g.
func (a *Accel) GX() float64 {
	return GravityG*math.Sin(a.orientation.Pitch) + a.dynX
}

// GY returns the acceleration sensed on the Y axis in g.
func (a *Accel) GY() float64 {
	return GravityG*math.Sin(a.orientation.Roll) + a.dynY
}

// VoltageX returns the analog X output.
func (a *Accel) VoltageX() float64 { return a.voltage(a.GX()) }

// VoltageY returns the analog Y output.
func (a *Accel) VoltageY() float64 { return a.voltage(a.GY()) }

func (a *Accel) voltage(g float64) float64 {
	v := ZeroGVolts + SensitivityVPerG*g
	if a.rng != nil {
		v += a.rng.Norm(0, NoiseSD)
	}
	if v < 0 {
		v = 0
	}
	if v > SupplyVolts {
		v = SupplyVolts
	}
	return v
}

// TiltFromVoltages recovers pitch and roll (radians) from a pair of analog
// outputs, clamping the implied g to [-1, 1] before the arcsine. It is the
// host-side decoding used by the tilt baseline.
func TiltFromVoltages(vx, vy float64) Orientation {
	toAngle := func(v float64) float64 {
		g := (v - ZeroGVolts) / SensitivityVPerG
		if g > 1 {
			g = 1
		}
		if g < -1 {
			g = -1
		}
		return math.Asin(g)
	}
	return Orientation{Pitch: toAngle(vx), Roll: toAngle(vy)}
}

// String formats an orientation in degrees for debug displays.
func (o Orientation) String() string {
	return fmt.Sprintf("pitch=%.1f° roll=%.1f°", o.Pitch*180/math.Pi, o.Roll*180/math.Pi)
}
