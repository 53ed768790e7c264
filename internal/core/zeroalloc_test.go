package core_test

import (
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

// TestHubHandleZeroAlloc enforces the demux fast path's zero-allocation
// contract: with metrics off, no event log and no handlers (the unreliable
// fleet-scale configuration), routing a decoded frame to its session must
// not allocate — not for the message, not for an Event, not for a lock.
func TestHubHandleZeroAlloc(t *testing.T) {
	hub := core.NewHub(false)
	m := rf.Message{Device: 3, Kind: rf.MsgScroll, Seq: 1, AtMillis: 40, Index: 2}
	payload, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	hub.Session(3) // pre-register so the measurement sees steady state
	at := 5 * time.Millisecond
	if n := testing.AllocsPerRun(1000, func() {
		hub.Handle(payload, at)
		at += time.Millisecond
	}); n != 0 {
		t.Fatalf("Hub.Handle: %v allocs/op, want 0", n)
	}
	if st := hub.Stats(); st.Decoded != 1001 || st.BadFrames != 0 {
		t.Fatalf("hub stats after run: %+v", st)
	}
}

// TestHubHandleTracedZeroAlloc extends the contract to the traced demux
// path: with a flight recorder attached (bounded ring, pre-allocated),
// recording the per-frame hub.demux span event must stay allocation-free —
// tracing is admissible on the hot path or it is useless in production.
func TestHubHandleTracedZeroAlloc(t *testing.T) {
	hub := core.NewHub(false)
	m := rf.Message{Device: 3, Kind: rf.MsgScroll, Seq: 1, AtMillis: 40, Index: 2}
	payload, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	tracer := tracing.New(tracing.Config{Capacity: 1024, Bounded: true})
	rec := tracer.NewRecorder("dev-3", 3)
	hub.Session(3).AttachTracer(rec)
	at := 5 * time.Millisecond
	if n := testing.AllocsPerRun(1000, func() {
		hub.Handle(payload, at)
		at += time.Millisecond
	}); n != 0 {
		t.Fatalf("Hub.Handle traced: %v allocs/op, want 0", n)
	}
	if rec.Total() != 1001 {
		t.Fatalf("recorded %d demux events, want 1001", rec.Total())
	}
}

// TestHubHandleBadFrameZeroAlloc checks the corrupt-frame path too: a storm
// of undecodable payloads should cost one atomic increment each, nothing
// more.
func TestHubHandleBadFrameZeroAlloc(t *testing.T) {
	hub := core.NewHub(false)
	junk := []byte{0x01, 0x02}
	if n := testing.AllocsPerRun(1000, func() {
		hub.Handle(junk, 0)
	}); n != 0 {
		t.Fatalf("Hub.Handle(bad frame): %v allocs/op, want 0", n)
	}
	if st := hub.Stats(); st.BadFrames != 1001 {
		t.Fatalf("bad frames = %d, want 1001", st.BadFrames)
	}
}

// TestCollectAllocsIndependentOfSessions pins the collector's cost shape:
// every session folds into the aggregate latency histogram in place, and
// only the budgeted per-device series allocate, so collecting 10k sessions
// allocates as often as collecting 1k. (The race detector's runtime adds a
// few allocations of noise either way; one per session would add 9000.)
func TestCollectAllocsIndependentOfSessions(t *testing.T) {
	allocs := func(sessions int) float64 {
		hub := core.NewHubWithMetrics(false, telemetry.New())
		for d := 1; d <= sessions; d++ {
			hub.Consume(rf.Message{Kind: rf.MsgScroll, Device: uint32(d), AtMillis: 10}, 15*time.Millisecond)
		}
		return testing.AllocsPerRun(20, func() { hub.Collect(telemetry.NewSnapshot()) })
	}
	small, large := allocs(1000), allocs(10000)
	if large-small >= (10000-1000)/100 {
		t.Fatalf("collecting 1k sessions: %v allocs, 10k: %v; the difference is per-session", small, large)
	}
	if large > 10*telemetry.MaxDeviceSeries {
		t.Fatalf("collecting 10k sessions: %v allocs, want at most %d", large, 10*telemetry.MaxDeviceSeries)
	}
}

// TestConsumeTappedZeroAlloc pins the instrumented dispatch path: with a
// registry and a tap, Session.Consume builds the event, runs the tap,
// records end-to-end latency and times one frame in 64, all without
// allocating. The seqs run past several multiples of 64, so sampled
// frames are inside the measurement.
func TestConsumeTappedZeroAlloc(t *testing.T) {
	hub := core.NewHubWithMetrics(false, telemetry.New())
	s := hub.Session(3)
	var tapped int
	s.Tap(func(core.Event) { tapped++ })
	m := rf.Message{Device: 3, Kind: rf.MsgScroll, AtMillis: 40, Index: 2}
	at := 45 * time.Millisecond
	if n := testing.AllocsPerRun(1000, func() {
		s.Consume(m, at)
		m.Seq++
	}); n != 0 {
		t.Fatalf("Session.Consume with registry and tap: %v allocs/op, want 0", n)
	}
	if tapped == 0 {
		t.Fatal("tap never ran")
	}
}
