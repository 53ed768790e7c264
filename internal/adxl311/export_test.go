package adxl311

import "github.com/hcilab/distscroll/internal/sim"

// New allocates an accelerometer and builds it with Init. Boards hold
// their Accel by value, so only tests build one on its own.
func New(rng *sim.Rand) *Accel {
	a := new(Accel)
	a.Init(rng)
	return a
}
