package core

import (
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/menu"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// feedAt pushes a frame with the given sequence number and origin
// timestamp through a sink at the given arrival time.
func feedAt(t *testing.T, sink func([]byte, time.Duration), device uint32, seq uint16, origin, at time.Duration) {
	t.Helper()
	m := rf.Message{
		Kind:     rf.MsgHeartbeat,
		Device:   device,
		Seq:      seq,
		AtMillis: uint32(origin / time.Millisecond),
	}
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sink(b, at)
}

func TestSessionCountsDuplicatesAndReorders(t *testing.T) {
	h := NewHost(false)
	feed(t, h, 5)
	feed(t, h, 5) // duplicate
	feed(t, h, 6)
	feed(t, h, 5) // one step late: reordering, not loss
	st := h.Stats()
	if st.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", st.Duplicates)
	}
	if st.Reordered != 1 {
		t.Fatalf("reordered = %d, want 1", st.Reordered)
	}
	if st.MissedSeq != 0 {
		t.Fatalf("missed = %d, want 0", st.MissedSeq)
	}
}

func TestHubMetricsRecordPerDeviceLatency(t *testing.T) {
	reg := telemetry.New()
	hub := NewHubWithMetrics(false, reg)
	// Device 3: two frames at 5 ms and 7 ms of pipeline latency; device 9:
	// one frame at 40 ms.
	feedAt(t, hub.Handle, 3, 0, 100*time.Millisecond, 105*time.Millisecond)
	feedAt(t, hub.Handle, 3, 1, 200*time.Millisecond, 207*time.Millisecond)
	feedAt(t, hub.Handle, 9, 0, 300*time.Millisecond, 340*time.Millisecond)

	s := reg.Snapshot()
	if got := s.Counters[telemetry.MetricHubDecoded]; got != 3 {
		t.Fatalf("decoded = %d, want 3", got)
	}
	if got := s.Gauges[telemetry.MetricHubDevices]; got != 2 {
		t.Fatalf("devices gauge = %g, want 2", got)
	}
	agg, ok := s.Histogram(telemetry.MetricHubE2ELatency)
	if !ok || agg.Count != 3 {
		t.Fatalf("aggregate latency: ok=%v %+v", ok, agg)
	}
	d3, ok := s.Histogram(telemetry.DeviceLatencyName(3))
	if !ok || d3.Count != 2 {
		t.Fatalf("device 3 latency: ok=%v %+v", ok, d3)
	}
	// 5 ms and 7 ms, so the recorded sum pins the unit conversion.
	if d3.Sum != 12 {
		t.Fatalf("device 3 latency sum = %g ms, want 12", d3.Sum)
	}
	d9, ok := s.Histogram(telemetry.DeviceLatencyName(9))
	if !ok || d9.Count != 1 || d9.Sum != 40 {
		t.Fatalf("device 9 latency: ok=%v %+v", ok, d9)
	}
	// The aggregate is the merge of the per-device series.
	if agg.Sum != d3.Sum+d9.Sum {
		t.Fatalf("aggregate sum %g != %g + %g", agg.Sum, d3.Sum, d9.Sum)
	}
}

func TestHubMetricsCountBadFramesAndGaps(t *testing.T) {
	reg := telemetry.New()
	hub := NewHubWithMetrics(false, reg)
	hub.Handle([]byte{0x01, 0x02}, 0) // undecodable
	feedAt(t, hub.Handle, 1, 0, 0, 0)
	feedAt(t, hub.Handle, 1, 3, 0, 0) // skips seq 1 and 2
	s := reg.Snapshot()
	if got := s.Counters[telemetry.MetricHubBadFrames]; got != 1 {
		t.Fatalf("bad frames = %d, want 1", got)
	}
	if got := s.Counters[telemetry.MetricHubSeqGaps]; got != 2 {
		t.Fatalf("seq gaps = %d, want 2", got)
	}
}

func TestHostWithMetricsCollects(t *testing.T) {
	reg := telemetry.New()
	h := NewHostWithMetrics(false, reg)
	feedAt(t, h.Handle, 0, 0, 10*time.Millisecond, 13*time.Millisecond)
	s := reg.Snapshot()
	if got := s.Counters[telemetry.MetricHubDecoded]; got != 1 {
		t.Fatalf("decoded = %d, want 1", got)
	}
	lat, ok := s.Histogram(telemetry.MetricHubE2ELatency)
	if !ok || lat.Count != 1 || lat.Sum != 3 {
		t.Fatalf("latency: ok=%v %+v", ok, lat)
	}
}

// TestDeviceMetricsEndToEnd runs a full simulated device with a registry
// attached and checks the firmware, link and host layers all reported, and
// that every delivered frame carries a latency observation.
func TestDeviceMetricsEndToEnd(t *testing.T) {
	reg := telemetry.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	dev, err := NewDevice(cfg, menu.FlatMenu(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	dev.Stop()
	if err := dev.Run(time.Second); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if s.Counters[telemetry.MetricFwCycles] == 0 {
		t.Fatal("firmware cycles not collected")
	}
	if s.Counters[telemetry.MetricFwADCReads] == 0 {
		t.Fatal("ADC reads not collected")
	}
	sent := s.Counters[telemetry.MetricRFSent]
	if sent == 0 {
		t.Fatal("rf sent not collected")
	}
	delivered := s.Counters[telemetry.MetricRFDelivered]
	lost := s.Counters[telemetry.MetricRFLost]
	corrupted := s.Counters[telemetry.MetricRFCorrupted]
	if sent != delivered+lost+corrupted {
		t.Fatalf("loss accounting: sent %d != delivered %d + lost %d + corrupted %d",
			sent, delivered, lost, corrupted)
	}
	if got := s.Counters[telemetry.MetricHubDecoded]; got != delivered {
		t.Fatalf("decoded %d != delivered %d", got, delivered)
	}
	lat, ok := s.Histogram(telemetry.MetricHubE2ELatency)
	if !ok {
		t.Fatal("no latency histogram")
	}
	if lat.Count != delivered {
		t.Fatalf("latency observations %d != delivered frames %d", lat.Count, delivered)
	}
	// The modelled link adds 4-6 ms plus serialisation; every observation
	// must land in a positive bucket well under a second.
	if lat.Sum <= 0 || lat.Sum/float64(lat.Count) > 1000 {
		t.Fatalf("implausible mean latency %g ms", lat.Sum/float64(lat.Count))
	}
}

// TestMetricsDoNotPerturbSimulation pins the zero-interference contract:
// an instrumented run produces the identical event stream to a plain one.
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	run := func(reg *telemetry.Registry) []Event {
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.Metrics = reg
		dev, err := NewDevice(cfg, menu.FlatMenu(10))
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		dev.Stop()
		if err := dev.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		return dev.Host.Events()
	}
	plain := run(nil)
	instrumented := run(telemetry.New())
	if len(plain) != len(instrumented) {
		t.Fatalf("event counts differ: %d vs %d", len(plain), len(instrumented))
	}
	for i := range plain {
		if plain[i] != instrumented[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, plain[i], instrumented[i])
		}
	}
}

// TestDispatchTimingSampled pins the dispatch-timing sample rate: with a
// tap registered, seqs 0..1023 through one session time exactly the 16
// frames whose seq is a multiple of 64, while the tap sees all 1024.
func TestDispatchTimingSampled(t *testing.T) {
	reg := telemetry.New()
	hub := NewHubWithMetrics(false, reg)
	tapped := 0
	hub.Session(5).Tap(func(Event) { tapped++ })
	for seq := uint16(0); seq < 1024; seq++ {
		hub.Consume(rf.Message{Kind: rf.MsgScroll, Device: 5, Seq: seq, AtMillis: 10}, 12*time.Millisecond)
	}
	if tapped != 1024 {
		t.Fatalf("tap saw %d frames, want 1024", tapped)
	}
	d, ok := reg.Snapshot().Histogram(telemetry.MetricHubDispatch)
	if !ok || d.Count != 1024/dispatchSampleEvery {
		t.Fatalf("%s count = %d (ok=%v), want %d", telemetry.MetricHubDispatch, d.Count, ok, 1024/dispatchSampleEvery)
	}
}

// TestDetachedHubWithoutDeviceClock: a hub whose arrival stamps are not on
// the devices' clock keeps counters and dispatch timing but builds no
// latency histogram, so it records no hub_e2e_latency_ms however far the
// stamps fall from the device time, and registering a session allocates
// only the session itself.
func TestDetachedHubWithoutDeviceClock(t *testing.T) {
	reg := telemetry.New()
	hub := NewHubDetached(false, reg, false)
	reg.RegisterCollector(func(snap *telemetry.Snapshot) { hub.Collect(snap) })
	hub.Session(1).Tap(func(Event) {})
	// Stamps both before and after the device's 1 s.
	for seq, at := range []time.Duration{0, 2 * time.Second, 500 * time.Millisecond, 90 * time.Second} {
		hub.Consume(rf.Message{Kind: rf.MsgScroll, Device: 1, Seq: uint16(seq * 64), AtMillis: 1000}, at)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricHubDecoded]; got != 4 {
		t.Fatalf("decoded = %d, want 4", got)
	}
	if h, ok := snap.Histogram(telemetry.MetricHubE2ELatency); ok {
		t.Fatalf("hub without the device clock recorded %s: %+v", telemetry.MetricHubE2ELatency, h)
	}
	if _, ok := hub.Session(1).Latency(); ok {
		t.Fatal("session without the device clock has a latency histogram")
	}
	if d, _ := snap.Histogram(telemetry.MetricHubDispatch); d.Count != 4 {
		t.Fatalf("dispatch count = %d, want 4 (every seq here is a multiple of 64)", d.Count)
	}

	const n = 4096
	perSession := func(deviceClock bool) float64 {
		return testing.AllocsPerRun(3, func() {
			h := NewHubDetached(false, reg, deviceClock)
			for id := uint32(1); id <= n; id++ {
				h.Session(id)
			}
		}) / n
	}
	// One object per session plus the amortised table and order growth;
	// the latency histogram is two more.
	if got := perSession(false); got > 1.1 {
		t.Fatalf("registering a session without the device clock: %.2f allocs, want <= 1.1", got)
	}
	if got := perSession(true); got < 2.9 {
		t.Fatalf("registering an instrumented session: %.2f allocs, want >= 2.9 (session + latency histogram)", got)
	}
}
