// Package gp2d120 models the Sharp GP2D120 infrared triangulation distance
// sensor used as the integral input component of the DistScroll prototype
// (paper Section 4.2, Figures 4 and 5).
//
// The model reproduces the behaviours the interaction technique depends on:
//
//   - a hyperbolic, non-linear analog output voltage over the usable range
//     of roughly 4–30 cm (the paper: "its measurement range fits perfectly
//     for the predicted normal usage of the DistScroll device of about 4 to
//     30 cm");
//   - output *rises* as the object approaches and *falls* as it moves away;
//   - the fold-back ambiguity below ~4 cm, where "the values decline again"
//     so approach and retreat cannot be distinguished;
//   - near-invariance to object colour/reflectivity, with an optional
//     structured-reflection outlier mode for "reflective surfaces with clear
//     boundaries" (the paper's stated failure case);
//   - the far cut-off beyond which "no measurement can be made".
package gp2d120

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/hcilab/distscroll/internal/sim"
)

// Physical limits of the modelled sensor, in centimetres.
const (
	// PeakDistanceCm is where the output voltage peaks; below it the
	// characteristic folds back (datasheet: ~3 cm).
	PeakDistanceCm = 3.0
	// MinUsableCm is the near edge of the monotone usable range (paper: 4 cm).
	MinUsableCm = 4.0
	// MaxUsableCm is the far edge of the usable range (paper: 30 cm).
	MaxUsableCm = 30.0
	// CutoffCm is where the sensor stops returning a meaningful measurement.
	CutoffCm = 40.0
	// FloorVolts is the output level beyond the cutoff.
	FloorVolts = 0.25
)

// Default characteristic parameters for V(d) = a/(d+b) + c, chosen to match
// the GP2D120 datasheet curve (≈2.9 V at 4 cm falling to ≈0.4 V at 30 cm).
const (
	DefaultA = 13.0
	DefaultB = 0.42
	DefaultC = 0.04
)

// ErrOutOfRange is returned by Distance inversion when the voltage cannot
// correspond to a distance inside the monotone usable range.
var ErrOutOfRange = errors.New("gp2d120: voltage outside usable range")

// Surface describes the object in front of the sensor. The paper verified
// the characteristic "in different light conditions and with different
// clothing"; reflectivity has only a small effect, which this captures.
type Surface struct {
	// Reflectivity scales the returned signal slightly. 1.0 is the grey
	// reference card; clothing falls in roughly [0.92, 1.08].
	Reflectivity float64
	// Structured marks surfaces with sharp reflective boundaries, which
	// can scatter the emitted spot and produce spurious readings.
	Structured bool
	// OutlierProb is the per-sample probability of a spurious reading when
	// Structured is set.
	OutlierProb float64
}

// DefaultSurface is ordinary matte clothing.
func DefaultSurface() Surface {
	return Surface{Reflectivity: 1.0}
}

// Config parameterises a sensor instance.
type Config struct {
	// A, B, C are the characteristic parameters of V(d) = A/(d+B) + C.
	A, B, C float64
	// NoiseSD is the RMS output noise in volts (datasheet-ish: ~10 mV).
	NoiseSD float64
	// AmbientOffset is a constant voltage offset from ambient IR light.
	AmbientOffset float64
}

// DefaultConfig returns the datasheet-matched configuration.
func DefaultConfig() Config {
	return Config{A: DefaultA, B: DefaultB, C: DefaultC, NoiseSD: 0.010}
}

// charTable is the precomputed characteristic of one (A, B, C) parameter
// set: the hyperbolic branch V(d) = A/(d+B) + C sampled on a uniform grid
// over [PeakDistanceCm, CutoffCm] for linear interpolation, plus the
// derived constants every sample would otherwise recompute. Only the
// smooth hyperbola is tabulated — the fold-back below the peak is exactly
// linear and the floor beyond the cutoff is constant, so interpolating
// across either boundary would only add error. Tables are shared across
// sensors with the same parameters, so a fleet of thousands of identical
// devices pays for one table.
type charTable struct {
	nodes []float64 // V at PeakDistanceCm + i*charStep
	peak  float64   // V at the peak, the fold-back branch's top
	vNear float64   // V at MinUsableCm, Distance's upper bound
	vFar  float64   // V at CutoffCm, Distance's lower bound
}

// charStep is the table grid spacing in cm. The hyperbola's curvature is
// largest at the peak (|V”| = 2A/(d+B)^3 ≈ 0.65 V/cm² for the default
// parameters), so the linear-interpolation error is bounded by
// |V”|·step²/8 ≈ 3.1e-7 V — three orders of magnitude below the 10-bit
// ADC step of ~3.2 mV. TestTableMatchesExact asserts the bound.
const charStep = 1.0 / 512

// tableCacheMu guards tableCache, the shared (A, B, C) → table map.
var (
	tableCacheMu sync.Mutex
	tableCache   = map[[3]float64]*charTable{}
)

// tableFor returns the shared characteristic table for a parameter set,
// building it on first use.
func tableFor(a, b, c float64) *charTable {
	key := [3]float64{a, b, c}
	tableCacheMu.Lock()
	defer tableCacheMu.Unlock()
	if t, ok := tableCache[key]; ok {
		return t
	}
	n := int(math.Ceil((CutoffCm-PeakDistanceCm)/charStep)) + 1
	t := &charTable{
		nodes: make([]float64, n),
		peak:  a/(PeakDistanceCm+b) + c,
		vNear: a/(MinUsableCm+b) + c,
		vFar:  a/(CutoffCm+b) + c,
	}
	for i := range t.nodes {
		d := PeakDistanceCm + float64(i)*charStep
		if d > CutoffCm {
			d = CutoffCm
		}
		t.nodes[i] = a/(d+b) + c
	}
	tableCache[key] = t
	return t
}

// lookup evaluates the characteristic at distance d (cm) from the table:
// exact on the linear fold-back and floor branches, linearly interpolated
// on the hyperbola. It is the division-and-allocation-free fast path
// behind Sample; Ideal remains the exact reference curve.
func (t *charTable) lookup(d float64) float64 {
	switch {
	case d <= 0:
		return 0
	case d < PeakDistanceCm:
		return t.peak * (d / PeakDistanceCm)
	case d > CutoffCm:
		return FloorVolts
	}
	x := (d - PeakDistanceCm) / charStep
	i := int(x)
	if i >= len(t.nodes)-1 {
		return t.nodes[len(t.nodes)-1]
	}
	frac := x - float64(i)
	return t.nodes[i] + frac*(t.nodes[i+1]-t.nodes[i])
}

// Sensor is a GP2D120 instance.
type Sensor struct {
	cfg     Config
	surface Surface
	rng     *sim.Rand
	// tab is the shared precomputed characteristic; gain caches
	// weakGain(surface.Reflectivity), which costs a math.Log to derive.
	// Together they make Sample free of transcendental calls and divisions
	// on the non-outlier path.
	tab  *charTable
	gain float64
}

// New returns a sensor with the given configuration, surface and random
// source. rng may be nil for a noiseless, deterministic sensor.
func New(cfg Config, surface Surface, rng *sim.Rand) (*Sensor, error) {
	s := new(Sensor)
	if err := s.Init(cfg, surface, rng); err != nil {
		return nil, err
	}
	return s, nil
}

// Init builds the sensor New describes in place at s, so an owner can hold
// its Sensor by value.
func (s *Sensor) Init(cfg Config, surface Surface, rng *sim.Rand) error {
	if cfg.A <= 0 || cfg.B < 0 {
		return fmt.Errorf("gp2d120: invalid characteristic a=%g b=%g", cfg.A, cfg.B)
	}
	if surface.Reflectivity <= 0 {
		return fmt.Errorf("gp2d120: reflectivity must be positive, got %g", surface.Reflectivity)
	}
	*s = Sensor{
		cfg:     cfg,
		surface: surface,
		rng:     rng,
		tab:     tableFor(cfg.A, cfg.B, cfg.C),
		gain:    weakGain(surface.Reflectivity),
	}
	return nil
}

// Default returns a sensor with datasheet parameters, the default surface
// and the given random source.
func Default(rng *sim.Rand) *Sensor {
	s, err := New(DefaultConfig(), DefaultSurface(), rng)
	if err != nil {
		// DefaultConfig is valid by construction.
		panic(err)
	}
	return s
}

// SetSurface changes the object in front of the sensor.
func (s *Sensor) SetSurface(surface Surface) {
	s.surface = surface
	s.gain = weakGain(surface.Reflectivity)
}

// Surface returns the current surface.
func (s *Sensor) Surface() Surface { return s.surface }

// Ideal returns the noiseless characteristic voltage at distance d (cm),
// including the fold-back below the peak and the far cut-off. This is the
// "idealized curve" of paper Figure 4.
func (s *Sensor) Ideal(d float64) float64 {
	switch {
	case d <= 0:
		return 0
	case d < PeakDistanceCm:
		// Fold-back branch: roughly linear rise from near zero at contact
		// to the peak value, so the value "declines again" as the device
		// moves below 4 cm — and declines much faster than the far branch,
		// which the paper notes advanced users can exploit.
		peak := s.cfg.A/(PeakDistanceCm+s.cfg.B) + s.cfg.C
		return peak * (d / PeakDistanceCm)
	case d > CutoffCm:
		return FloorVolts
	default:
		return s.cfg.A/(d+s.cfg.B) + s.cfg.C
	}
}

// Sample returns one noisy analog reading at distance d (cm), applying
// surface reflectivity, ambient offset, Gaussian noise and (for structured
// surfaces) spurious outliers. Output is clamped to [0, 3.3] V, the
// sensor's output swing.
func (s *Sensor) Sample(d float64) float64 {
	v := s.tab.lookup(d)
	// Reflectivity has a weak effect on the triangulated signal; model it
	// as a small gain on the distance-dependent part. The gain is cached at
	// construction/SetSurface time, so the per-sample cost is one multiply.
	v = (v-s.cfg.C)*s.gain + s.cfg.C
	v += s.cfg.AmbientOffset
	if s.rng != nil {
		if s.surface.Structured && s.rng.Bool(s.surface.OutlierProb) {
			// A scattered spot reads as a random in-range voltage.
			v = s.rng.Uniform(FloorVolts, 3.0)
		} else {
			v += s.rng.Norm(0, s.cfg.NoiseSD)
		}
	}
	return clamp(v, 0, 3.3)
}

// Distance inverts the monotone branch of the characteristic: given a
// voltage it returns the distance in [MinUsableCm, CutoffCm]. It returns
// ErrOutOfRange for voltages above the 4 cm value (ambiguous fold-back
// region) or below the cutoff floor.
func (s *Sensor) Distance(v float64) (float64, error) {
	// The range bounds are precomputed in the shared characteristic table.
	if v > s.tab.vNear || v < s.tab.vFar {
		return 0, fmt.Errorf("%w: %.3f V not in [%.3f, %.3f]", ErrOutOfRange, v, s.tab.vFar, s.tab.vNear)
	}
	return s.cfg.A/(v-s.cfg.C) - s.cfg.B, nil
}

// InRange reports whether distance d lies in the monotone usable range the
// paper designs for.
func (s *Sensor) InRange(d float64) bool {
	return d >= MinUsableCm && d <= MaxUsableCm
}

// Config returns the sensor configuration.
func (s *Sensor) Config() Config { return s.cfg }

// weakGain compresses the reflectivity effect: a ±8% reflectivity change
// moves the signal by only about ±1.5%, matching "the color (the
// reflectivity) of the object in front of the sensor does nearly not
// matter".
func weakGain(reflectivity float64) float64 {
	return 1 + 0.2*math.Log(reflectivity)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
