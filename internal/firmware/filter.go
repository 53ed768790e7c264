// Package firmware is the Go port of the C firmware running on the PIC
// 18F452 inside the DistScroll (paper Section 4: "The code for the
// microcontroller in the DistScroll device is programmed in C").
//
// The loop is: sample the distance sensor through the ADC, filter the
// value, map it to an entry island, move the menu cursor, redraw the two
// displays over I2C, scan the buttons, and report events over the RF link.
package firmware

import (
	"fmt"
	"sort"
)

// FilterKind selects the sensor smoothing strategy (ablation A1).
type FilterKind int

// Filter kinds.
const (
	// Raw passes samples through unfiltered.
	Raw FilterKind = iota + 1
	// Median3 applies a 3-tap median, killing single-sample outliers (the
	// spurious readings of structured reflective surfaces).
	Median3
	// EMA applies an exponential moving average, smoothing tremor.
	EMA
	// MedianEMA chains a 3-tap median into an EMA — the prototype default.
	MedianEMA
)

// String returns the filter name.
func (k FilterKind) String() string {
	switch k {
	case Raw:
		return "raw"
	case Median3:
		return "median3"
	case EMA:
		return "ema"
	case MedianEMA:
		return "median3+ema"
	default:
		return fmt.Sprintf("filter(%d)", int(k))
	}
}

// Filter smooths a stream of voltages.
type Filter interface {
	// Apply consumes one sample and returns the filtered value.
	Apply(v float64) float64
	// Reset clears the filter state.
	Reset()
}

// DefaultEMAAlpha is the prototype's EMA coefficient; the struct-of-arrays
// scale path (core.StateSlab) bakes the same gain into its packed filter.
const DefaultEMAAlpha = 0.35

// NewFilter constructs a filter of the given kind. alpha is the EMA
// coefficient (ignored by Raw/Median3); values outside (0,1] fall back to
// the prototype's DefaultEMAAlpha.
func NewFilter(kind FilterKind, alpha float64) (Filter, error) {
	return new(filterSet).init(kind, alpha)
}

// filterSet holds every stage a filter may be built from, by value, so a
// filter is one allocation and the firmware, which embeds its set, pays
// none.
type filterSet struct {
	median medianFilter
	ema    emaFilter
	chain  chainFilter
}

// init resets s and returns the filter of the given kind built from its
// stages; see NewFilter for the arguments.
func (s *filterSet) init(kind FilterKind, alpha float64) (Filter, error) {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultEMAAlpha
	}
	*s = filterSet{ema: emaFilter{alpha: alpha}}
	switch kind {
	case Raw:
		return rawFilter{}, nil
	case Median3:
		return &s.median, nil
	case EMA:
		return &s.ema, nil
	case MedianEMA:
		s.chain = chainFilter{first: &s.median, second: &s.ema}
		return &s.chain, nil
	default:
		return nil, fmt.Errorf("firmware: unknown filter kind %d", kind)
	}
}

type rawFilter struct{}

func (rawFilter) Apply(v float64) float64 { return v }
func (rawFilter) Reset()                  {}

type medianFilter struct {
	window [3]float64
	n      int
}

func (f *medianFilter) Apply(v float64) float64 {
	if f.n < 3 {
		f.window[f.n] = v
		f.n++
		// Warm-up: return the input until the window fills.
		if f.n < 3 {
			return v
		}
	} else {
		f.window[0], f.window[1], f.window[2] = f.window[1], f.window[2], v
	}
	w := f.window
	s := w[:]
	sort.Float64s(s)
	return s[1]
}

func (f *medianFilter) Reset() { f.n = 0 }

type emaFilter struct {
	alpha float64
	value float64
	init  bool
}

func (f *emaFilter) Apply(v float64) float64 {
	if !f.init {
		f.value = v
		f.init = true
		return v
	}
	f.value += f.alpha * (v - f.value)
	return f.value
}

func (f *emaFilter) Reset() { f.init = false }

type chainFilter struct {
	first, second Filter
}

func (f *chainFilter) Apply(v float64) float64 { return f.second.Apply(f.first.Apply(v)) }

func (f *chainFilter) Reset() {
	f.first.Reset()
	f.second.Reset()
}
