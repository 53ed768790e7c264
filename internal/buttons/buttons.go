// Package buttons models the push buttons of the DistScroll prototype:
// "two of them situated in the middle area of the device on the left side
// and one button situated near the top on the right side" (paper Section
// 4.5), debounced in firmware, used to select menu entries.
//
// Section 6 of the paper discusses alternative layouts — a two-button
// design with buttons slidable along the sides, and a single large button
// usable with either hand — which Layout captures.
package buttons

import (
	"fmt"
	"time"
)

// ID identifies a button position on the case.
type ID int

// Button positions of the three-button prototype.
const (
	TopRight ID = iota + 1 // thumb button: "most conveniently operated with the thumb"
	LeftUpper
	LeftLower
)

// String returns the position name.
func (id ID) String() string {
	switch id {
	case TopRight:
		return "top-right"
	case LeftUpper:
		return "left-upper"
	case LeftLower:
		return "left-lower"
	default:
		return fmt.Sprintf("button(%d)", int(id))
	}
}

// Handedness selects which hand the layout is optimised for.
type Handedness int

// Hand options.
const (
	RightHanded Handedness = iota + 1
	LeftHanded
	Ambidextrous
)

// Layout describes a button arrangement under study.
type Layout struct {
	Name     string
	Buttons  []ID
	Hand     Handedness
	Slidable bool // buttons can slide along the case sides (Section 6)
}

// PrototypeLayout is the three-button right-handed layout of the built
// prototype.
func PrototypeLayout() Layout {
	return Layout{
		Name:    "prototype-3button",
		Buttons: []ID{TopRight, LeftUpper, LeftLower},
		Hand:    RightHanded,
	}
}

// SlidableTwoButtonLayout is the favoured future design: "a two button
// design with the buttons slidable along the sides of the device".
func SlidableTwoButtonLayout() Layout {
	return Layout{
		Name:     "slidable-2button",
		Buttons:  []ID{TopRight, LeftUpper},
		Hand:     Ambidextrous,
		Slidable: true,
	}
}

// SingleLargeButtonLayout is the alternative "one large button that can
// easily be pressed independently of which hand is used".
func SingleLargeButtonLayout() Layout {
	return Layout{
		Name:    "single-large",
		Buttons: []ID{TopRight},
		Hand:    Ambidextrous,
	}
}

// EventKind distinguishes press and release edges.
type EventKind int

// Edge kinds.
const (
	Press EventKind = iota + 1
	Release
)

// Event is a debounced button edge.
type Event struct {
	Button ID
	Kind   EventKind
	At     time.Duration
}

// DefaultDebounce is the firmware debounce interval.
const DefaultDebounce = 20 * time.Millisecond

// numIDs sizes the pad's per-button state, which is indexed by ID: every
// known position 1..LeftLower has a slot, and slot 0 stays unused.
const numIDs = int(LeftLower) + 1

// known reports whether id names a button position of the case.
func known(id ID) bool { return id >= TopRight && id <= LeftLower }

// Pad is a set of debounced buttons scanned by the firmware. Its state is
// held in arrays indexed by ID, so a pad is one flat value: building one,
// setting a level and scanning allocate nothing.
type Pad struct {
	layout   Layout
	debounce time.Duration

	raw      [numIDs]bool          // electrical level set by the environment
	stable   [numIDs]bool          // debounced level
	lastEdge [numIDs]time.Duration // time of last raw edge
	// events backs Scan's result: a scan reports at most one edge per
	// known button.
	events [numIDs - 1]Event
}

// NewPad returns a pad for the given layout with the default debounce.
func NewPad(layout Layout) *Pad {
	p := new(Pad)
	p.Init(layout)
	return p
}

// Init resets p in place to a released pad for the given layout with the
// default debounce, so an owner can hold its Pad by value.
func (p *Pad) Init(layout Layout) {
	*p = Pad{layout: layout, debounce: DefaultDebounce}
}

// SetDebounce overrides the debounce interval.
func (p *Pad) SetDebounce(d time.Duration) {
	if d >= 0 {
		p.debounce = d
	}
}

// Layout returns the pad layout.
func (p *Pad) Layout() Layout { return p.layout }

// Has reports whether the layout contains the button. An ID that names no
// position of the case (outside TopRight..LeftLower) is never on the pad,
// even if a layout lists it.
func (p *Pad) Has(id ID) bool {
	if !known(id) {
		return false
	}
	for _, b := range p.layout.Buttons {
		if b == id {
			return true
		}
	}
	return false
}

// Set drives the electrical level of a button (true = pressed) at the given
// time. Unknown buttons are ignored, matching a wire to nowhere.
func (p *Pad) Set(id ID, pressed bool, at time.Duration) {
	if !p.Has(id) {
		return
	}
	if p.raw[id] != pressed {
		p.raw[id] = pressed
		p.lastEdge[id] = at
	}
}

// Scan performs a firmware scan at the given time: any raw level that has
// been stable for the debounce interval and differs from the debounced
// state produces an event. The returned slice is the pad's scratch: it is
// valid until the next Scan, and a caller that keeps events must copy them.
func (p *Pad) Scan(at time.Duration) []Event {
	n := 0
	for _, id := range p.layout.Buttons {
		if !known(id) {
			continue
		}
		raw := p.raw[id]
		if raw == p.stable[id] {
			continue
		}
		if at-p.lastEdge[id] < p.debounce {
			continue
		}
		p.stable[id] = raw
		kind := Release
		if raw {
			kind = Press
		}
		p.events[n] = Event{Button: id, Kind: kind, At: at}
		n++
	}
	return p.events[:n]
}

// Pressed reports the debounced state of a button; false for an ID that
// names no position of the case.
func (p *Pad) Pressed(id ID) bool { return known(id) && p.stable[id] }
