package buttons

import (
	"testing"
	"time"
)

func TestPressAfterDebounce(t *testing.T) {
	p := NewPad(PrototypeLayout())
	p.Set(TopRight, true, 0)
	// Too early: no event.
	if evs := p.Scan(5 * time.Millisecond); len(evs) != 0 {
		t.Fatalf("premature events: %v", evs)
	}
	evs := p.Scan(25 * time.Millisecond)
	if len(evs) != 1 || evs[0].Kind != Press || evs[0].Button != TopRight {
		t.Fatalf("events: %v", evs)
	}
	if !p.Pressed(TopRight) {
		t.Fatal("debounced state not pressed")
	}
}

func TestBounceSuppressed(t *testing.T) {
	p := NewPad(PrototypeLayout())
	// Contact bounce: rapid edges within the debounce window.
	p.Set(TopRight, true, 0)
	p.Set(TopRight, false, 2*time.Millisecond)
	p.Set(TopRight, true, 4*time.Millisecond)
	p.Set(TopRight, false, 6*time.Millisecond)
	if evs := p.Scan(10 * time.Millisecond); len(evs) != 0 {
		t.Fatalf("bounce produced events: %v", evs)
	}
	// The line settled released: still no event (state never stably changed).
	if evs := p.Scan(50 * time.Millisecond); len(evs) != 0 {
		t.Fatalf("settled-low produced events: %v", evs)
	}
}

func TestReleaseEvent(t *testing.T) {
	p := NewPad(PrototypeLayout())
	p.Set(LeftUpper, true, 0)
	p.Scan(25 * time.Millisecond)
	p.Set(LeftUpper, false, 30*time.Millisecond)
	evs := p.Scan(60 * time.Millisecond)
	if len(evs) != 1 || evs[0].Kind != Release {
		t.Fatalf("events: %v", evs)
	}
}

func TestUnknownButtonIgnored(t *testing.T) {
	p := NewPad(SingleLargeButtonLayout())
	p.Set(LeftLower, true, 0) // not in this layout
	if evs := p.Scan(time.Second); len(evs) != 0 {
		t.Fatalf("unknown button produced events: %v", evs)
	}
	if p.Has(LeftLower) {
		t.Fatal("layout should not have LeftLower")
	}
}

// TestOutOfRangeIDsIgnored pins "unknown buttons are ignored" for IDs that
// name no position of the case: 0, -1 and one past LeftLower are never on
// the pad, even when the layout lists them, so Set drives nothing, Pressed
// reads false and Scan reports only the known buttons.
func TestOutOfRangeIDsIgnored(t *testing.T) {
	for _, id := range []ID{0, -1, LeftLower + 1} {
		lay := PrototypeLayout()
		lay.Buttons = append(lay.Buttons, id)
		p := NewPad(lay)
		p.Set(id, true, 0)
		if p.Has(id) || p.Pressed(id) {
			t.Fatalf("id %d: Has %v Pressed %v, want both false", id, p.Has(id), p.Pressed(id))
		}
		if evs := p.Scan(time.Second); len(evs) != 0 {
			t.Fatalf("id %d produced events: %v", id, evs)
		}
		p.Set(TopRight, true, time.Second)
		p.Set(id, true, time.Second)
		evs := p.Scan(2 * time.Second)
		if len(evs) != 1 || evs[0].Button != TopRight || evs[0].Kind != Press {
			t.Fatalf("id %d: scan beside a known press: %v", id, evs)
		}
		if p.Pressed(id) || !p.Pressed(TopRight) {
			t.Fatalf("id %d: Pressed %v, TopRight pressed %v", id, p.Pressed(id), p.Pressed(TopRight))
		}
	}
}

// TestScanReportsEachEdgeOnce pins that a debounced edge is returned by
// exactly one Scan and that the pad keeps no event history: a press and a
// release come back one per scan, later scans return nothing, and the
// scratch slice stays the size of one scan instead of growing per event.
func TestScanReportsEachEdgeOnce(t *testing.T) {
	p := NewPad(PrototypeLayout())
	p.Set(TopRight, true, 0)
	press := p.Scan(p.debounce)
	if len(press) != 1 || press[0].Kind != Press {
		t.Fatalf("press scan: %v", press)
	}
	p.Set(TopRight, false, 30*time.Millisecond)
	release := p.Scan(30*time.Millisecond + p.debounce)
	if len(release) != 1 || release[0].Kind != Release {
		t.Fatalf("release scan: %v", release)
	}
	if evs := p.Scan(time.Second); len(evs) != 0 {
		t.Fatalf("edges reported twice: %v", evs)
	}
	for i := 0; i < 100; i++ {
		at := time.Second + time.Duration(i)*100*time.Millisecond
		p.Set(LeftUpper, i%2 == 0, at)
		if evs := p.Scan(at + p.debounce); len(evs) != 1 {
			t.Fatalf("edge %d: %v", i, evs)
		}
	}
	if c := cap(p.events); c > 4 {
		t.Fatalf("scan scratch grew to %d events over 100 edges", c)
	}
}

// TestScanZeroAlloc pins the firmware's per-cycle button scan: from the
// first edge on, setting levels and scanning allocate nothing, with or
// without an edge to report.
func TestScanZeroAlloc(t *testing.T) {
	p := NewPad(PrototypeLayout())
	at, pressed := time.Second, true
	allocs := testing.AllocsPerRun(100, func() {
		p.Set(TopRight, pressed, at)
		if evs := p.Scan(at + p.debounce); len(evs) != 1 {
			t.Fatalf("scan at %v: %v", at, evs)
		}
		p.Scan(at + 2*p.debounce)
		at += time.Second
		pressed = !pressed
	})
	if allocs != 0 {
		t.Fatalf("Scan allocates %.1f times after warm-up", allocs)
	}
}

func TestSetDebounce(t *testing.T) {
	p := NewPad(PrototypeLayout())
	p.SetDebounce(100 * time.Millisecond)
	p.Set(TopRight, true, 0)
	if evs := p.Scan(50 * time.Millisecond); len(evs) != 0 {
		t.Fatal("custom debounce ignored")
	}
	if evs := p.Scan(100 * time.Millisecond); len(evs) != 1 {
		t.Fatal("press not reported after custom debounce")
	}
	p.SetDebounce(-time.Second) // ignored
	if evs := p.Scan(200 * time.Millisecond); len(evs) != 0 {
		t.Fatalf("negative debounce changed behaviour: %v", evs)
	}
}

func TestLayouts(t *testing.T) {
	proto := PrototypeLayout()
	if len(proto.Buttons) != 3 || proto.Hand != RightHanded {
		t.Fatalf("prototype layout: %+v", proto)
	}
	slide := SlidableTwoButtonLayout()
	if len(slide.Buttons) != 2 || !slide.Slidable || slide.Hand != Ambidextrous {
		t.Fatalf("slidable layout: %+v", slide)
	}
	single := SingleLargeButtonLayout()
	if len(single.Buttons) != 1 {
		t.Fatalf("single layout: %+v", single)
	}
}

func TestIDString(t *testing.T) {
	if TopRight.String() != "top-right" {
		t.Fatalf("TopRight = %q", TopRight.String())
	}
	if ID(99).String() == "" {
		t.Fatal("unknown id should still format")
	}
}

func TestEventTimestamps(t *testing.T) {
	p := NewPad(PrototypeLayout())
	p.Set(TopRight, true, time.Second)
	evs := p.Scan(time.Second + 25*time.Millisecond)
	if len(evs) != 1 {
		t.Fatalf("events: %v", evs)
	}
	if evs[0].At != time.Second+25*time.Millisecond {
		t.Fatalf("event time %v", evs[0].At)
	}
}
