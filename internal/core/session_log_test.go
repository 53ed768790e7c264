package core

import (
	"math"
	"testing"
	"time"
	"unsafe"

	"github.com/hcilab/distscroll/internal/rf"
)

// refEvent is the full Event the session built from every message before
// the log stored compact records; it is kept as the oracle of the
// record's expansion.
func refEvent(m rf.Message, at time.Duration) Event {
	return Event{
		Kind:       m.Kind,
		Device:     m.Device,
		Index:      int(m.Index),
		Button:     m.Button,
		DeviceTime: m.Timestamp(),
		HostTime:   at,
		Voltage:    float64(m.VoltageMV) / 1000,
		Island:     int(m.Island),
	}
}

// TestSessionLogMatchesFullEvents feeds messages with every kind, the
// extreme value of every logged field and every millivolt reading through
// Consume, and checks that both Events and the dispatched events equal the
// full-Event oracle.
func TestSessionLogMatchesFullEvents(t *testing.T) {
	if size := unsafe.Sizeof(logRecord{}); size != 24 {
		t.Fatalf("logRecord is %d B, want 24", size)
	}
	s := NewSession(7, true)
	var tapped []Event
	s.Tap(func(e Event) { tapped = append(tapped, e) })

	kinds := []rf.MsgKind{0, rf.MsgScroll, rf.MsgSelect, rf.MsgLevel, rf.MsgState,
		rf.MsgHeartbeat, rf.MsgAck, rf.MsgSkip, math.MaxUint8}
	shorts := []int16{math.MaxInt16, -math.MaxInt16, math.MinInt16, -1, 0}
	millis := []uint32{0, 1, math.MaxUint32}
	volts := []uint16{0, 1, 999, math.MaxUint16}
	devices := []uint32{0, 1, 7, math.MaxUint32}
	buttons := []byte{0, 1, 4, math.MaxUint8}
	ats := []time.Duration{0, time.Millisecond, math.MaxInt64}

	var want []Event
	var seq uint16
	for i, k := range kinds {
		for j, idx := range shorts {
			for n := 0; n < 3; n++ {
				m := rf.Message{
					Kind:      k,
					Device:    devices[(i+n)%len(devices)],
					Seq:       seq,
					AtMillis:  millis[(j+n)%len(millis)],
					Index:     idx,
					VoltageMV: volts[(i+j+n)%len(volts)],
					Island:    shorts[(j+n+1)%len(shorts)],
					Button:    buttons[(i+j)%len(buttons)],
				}
				at := ats[(i+n)%len(ats)]
				seq++
				s.Consume(m, at)
				want = append(want, refEvent(m, at))
			}
		}
	}
	// Every millivolt reading, so the voltage expansion is checked exactly.
	for mv := 0; mv <= math.MaxUint16; mv++ {
		m := rf.Message{Kind: rf.MsgState, Device: 7, Seq: seq, VoltageMV: uint16(mv)}
		seq++
		s.Consume(m, time.Second)
		want = append(want, refEvent(m, time.Second))
	}
	got := s.Events()
	if len(got) != len(want) || len(tapped) != len(want) {
		t.Fatalf("%d logged and %d dispatched events, want %d", len(got), len(tapped), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: logged %+v, want %+v", i, got[i], want[i])
		}
		if tapped[i] != want[i] {
			t.Fatalf("event %d: dispatched %+v, want %+v", i, tapped[i], want[i])
		}
	}
}
