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

// Pad is a set of debounced buttons scanned by the firmware.
type Pad struct {
	layout   Layout
	debounce time.Duration

	raw      map[ID]bool          // electrical level set by the environment
	stable   map[ID]bool          // debounced level
	lastEdge map[ID]time.Duration // time of last raw edge
	events   []Event              // Scan's result, reused by the next Scan
}

// NewPad returns a pad for the given layout with the default debounce.
func NewPad(layout Layout) *Pad {
	p := &Pad{
		layout:   layout,
		debounce: DefaultDebounce,
		raw:      make(map[ID]bool, len(layout.Buttons)),
		stable:   make(map[ID]bool, len(layout.Buttons)),
		lastEdge: make(map[ID]time.Duration, len(layout.Buttons)),
	}
	return p
}

// SetDebounce overrides the debounce interval.
func (p *Pad) SetDebounce(d time.Duration) {
	if d >= 0 {
		p.debounce = d
	}
}

// Layout returns the pad layout.
func (p *Pad) Layout() Layout { return p.layout }

// Has reports whether the layout contains the button.
func (p *Pad) Has(id ID) bool {
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
	events := p.events[:0]
	for _, id := range p.layout.Buttons {
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
		events = append(events, Event{Button: id, Kind: kind, At: at})
	}
	p.events = events
	return events
}

// Pressed reports the debounced state of a button.
func (p *Pad) Pressed(id ID) bool { return p.stable[id] }
