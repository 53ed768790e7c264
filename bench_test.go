package distscroll_test

// One benchmark per paper artefact (DESIGN.md Section 4). Each BenchmarkF*/
// BenchmarkE*/BenchmarkA* target re-runs the corresponding experiment —
// including its internal shape assertions — and reports its headline
// metrics; the A4 target measures the firmware hot loop itself.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/display"
	"github.com/hcilab/distscroll/internal/experiments"
	"github.com/hcilab/distscroll/internal/firmware"
	"github.com/hcilab/distscroll/internal/fleet"
	"github.com/hcilab/distscroll/internal/gp2d120"
	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/hubnet"
	"github.com/hcilab/distscroll/internal/mapping"
	"github.com/hcilab/distscroll/internal/menu"
	"github.com/hcilab/distscroll/internal/ops"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/sim"
	"github.com/hcilab/distscroll/internal/smartits"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

// benchExperiment runs one registered experiment per iteration and reports
// the selected metrics.
func benchExperiment(b *testing.B, id string, report ...string) {
	b.Helper()
	r, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var last experiments.Report
	for i := 0; i < b.N; i++ {
		rep, err := r.Run(uint64(i) + 1)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		last = rep
	}
	for _, m := range report {
		if v, ok := last.Metrics[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

func BenchmarkFig1MenuScroll(b *testing.B) {
	benchExperiment(b, "F1", "scroll_events_host", "final_cursor")
}

func BenchmarkFig2Architecture(b *testing.B) {
	benchExperiment(b, "F2", "rf_delivered", "adc_samples")
}

func BenchmarkFig3Inventory(b *testing.B) {
	benchExperiment(b, "F3", "total_draw_ma", "battery_life_hour")
}

func BenchmarkFig4SensorCurve(b *testing.B) {
	benchExperiment(b, "F4", "fit_r2", "fit_a", "fit_b")
}

func BenchmarkFig5LogFit(b *testing.B) {
	benchExperiment(b, "F5", "loglog_r2", "loglog_slope")
}

func BenchmarkE1IslandMapping(b *testing.B) {
	benchExperiment(b, "E1", "flicker_no_hysteresis", "flicker_with_hysteresis")
}

func BenchmarkE2UserStudy(b *testing.B) {
	benchExperiment(b, "E2", "error_rate_block1", "error_rate_block4", "mean_trial_s")
}

func BenchmarkE3FittsComparison(b *testing.B) {
	benchExperiment(b, "E3",
		"mt_distscroll_bare", "mt_stylus_bare",
		"mt_distscroll_winter", "mt_stylus_winter")
}

func BenchmarkE4RangeSweep(b *testing.B) {
	benchExperiment(b, "E4", "best_far_cm")
}

func BenchmarkE5Direction(b *testing.B) {
	benchExperiment(b, "E5", "mean_s_towards=down", "mean_s_towards=up")
}

func BenchmarkE6LongMenus(b *testing.B) {
	benchExperiment(b, "E6", "mean_s_flat-100", "mean_s_chunked-10", "mean_s_sdaz")
}

func BenchmarkE7HybridInput(b *testing.B) {
	benchExperiment(b, "E7", "hybrid_d32", "distance-only_d32", "buttons-only_d32")
}

func BenchmarkE8ButtonLayouts(b *testing.B) {
	benchExperiment(b, "E8", "prototype-3button_left", "slidable-2button_left")
}

func BenchmarkE9GloveStudy(b *testing.B) {
	benchExperiment(b, "E9", "winter_vs_bare_ratio", "mean_s_bare", "mean_s_winter")
}

func BenchmarkA1Filtering(b *testing.B) {
	benchExperiment(b, "A1", "changes_raw", "changes_median3+ema")
}

func BenchmarkA2IslandGaps(b *testing.B) {
	benchExperiment(b, "A2", "err_gap0.0", "err_gap0.4")
}

func BenchmarkA3RFLink(b *testing.B) {
	benchExperiment(b, "A3", "latency_ms_loss0.00", "latency_ms_loss0.20")
}

func BenchmarkA5PowerSave(b *testing.B) {
	benchExperiment(b, "A5", "duty_power-save", "battery_h_power-save", "battery_h_always-on")
}

func BenchmarkA6InputMode(b *testing.B) {
	benchExperiment(b, "A6", "flicker_absolute_n200", "flicker_relative_n200")
}

// BenchmarkA4FirmwareLoop measures one firmware cycle — ADC sample, filter,
// island map, display write-skip check, button scan, telemetry — the loop
// an 8-bit PIC at 10 MIPS must sustain at 25 Hz.
func BenchmarkA4FirmwareLoop(b *testing.B) {
	board, err := smartits.Assemble(smartits.DefaultConfig(), sim.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	m, err := menu.New(menu.FlatMenu(10))
	if err != nil {
		b.Fatal(err)
	}
	fw, err := firmware.New(firmware.DefaultConfig(), board, m, nil)
	if err != nil {
		b.Fatal(err)
	}
	board.SetDistance(15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fw.Step(time.Duration(i) * 40 * time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA4DisplayRedraw measures one full top-panel redraw as the
// firmware's drawTop issues it: the allocation-free WindowIs check, the
// window appended into reused byte rows, then a clear and five set-line
// commands built in one reused buffer and written over the I2C bus into the
// BT96040 model. The cursor moves every
// iteration, so every check fails and every redraw runs.
func BenchmarkA4DisplayRedraw(b *testing.B) {
	board, err := smartits.Assemble(smartits.DefaultConfig(), sim.NewRand(3))
	if err != nil {
		b.Fatal(err)
	}
	m, err := menu.New(menu.FlatMenu(10))
	if err != nil {
		b.Fatal(err)
	}
	var last [][]byte
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MoveTo(i % m.Len())
		if m.WindowIs(display.TextLines, last) {
			b.Fatal("window did not change")
		}
		last = m.AppendWindow(last[:0], display.TextLines)
		buf = append(buf[:0], display.CmdClear)
		if err := board.Bus.Write(smartits.AddrTopDisplay, buf); err != nil {
			b.Fatal(err)
		}
		for row, line := range last {
			buf = append(append(buf[:0], display.CmdSetLine, byte(row)), line...)
			if err := board.Bus.Write(smartits.AddrTopDisplay, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkA4SensorSample isolates the analog front end: one noisy sensor
// sample through the 10-bit ADC.
func BenchmarkA4SensorSample(b *testing.B) {
	board, err := smartits.Assemble(smartits.DefaultConfig(), sim.NewRand(2))
	if err != nil {
		b.Fatal(err)
	}
	board.SetDistance(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := board.ADC.Read(smartits.ChanDistance); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA4IslandMap isolates the mapper: one voltage-to-entry lookup
// with hysteresis.
func BenchmarkA4IslandMap(b *testing.B) {
	sensor := gp2d120.Default(nil)
	m, err := mapping.New(mapping.DefaultConfig(20), sensor.Ideal)
	if err != nil {
		b.Fatal(err)
	}
	v := sensor.Ideal(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Map(v)
	}
}

// BenchmarkHubDemux measures the host hub's receive path: decode one
// versioned frame and route it to the right per-device session, round-robin
// across a 64-device fleet.
func BenchmarkHubDemux(b *testing.B) {
	const devices = 64
	hub := core.NewHub(false)
	frames := make([][]byte, devices)
	for i := range frames {
		m := rf.Message{
			Device: uint32(i + 1), Kind: rf.MsgScroll,
			Seq: 1, AtMillis: 40, Index: int16(i % 10),
		}
		payload, err := m.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = payload
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.Handle(frames[i%devices], time.Duration(i)*time.Millisecond)
	}
	b.StopTimer()
	st := hub.Stats()
	if st.BadFrames != 0 || st.Decoded == 0 {
		b.Fatalf("hub stats: %+v", st)
	}
	b.ReportMetric(float64(st.Devices), "devices")
}

// BenchmarkHubDemuxInstrumented is BenchmarkHubDemux with a telemetry
// registry attached: every frame additionally lands in a per-device
// end-to-end latency histogram. Compare the two to see the observability
// tax on the hot path; the design budget is <10% (run both with
// `go test -bench 'HubDemux' .`).
func BenchmarkHubDemuxInstrumented(b *testing.B) {
	const devices = 64
	reg := telemetry.New()
	hub := core.NewHubWithMetrics(false, reg)
	frames := make([][]byte, devices)
	for i := range frames {
		m := rf.Message{
			Device: uint32(i + 1), Kind: rf.MsgScroll,
			Seq: 1, AtMillis: 40, Index: int16(i % 10),
		}
		payload, err := m.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = payload
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.Handle(frames[i%devices], time.Duration(i)*time.Millisecond)
	}
	b.StopTimer()
	s := reg.Snapshot()
	lat, ok := s.Histogram(telemetry.MetricHubE2ELatency)
	if !ok || lat.Count != uint64(b.N) {
		b.Fatalf("latency observations %d, want %d", lat.Count, b.N)
	}
	b.ReportMetric(lat.P50, "p50ms")
}

// BenchmarkHubDemuxTraced is BenchmarkHubDemux with a flight recorder
// attached: every frame additionally records one hub.demux span event into
// the per-device bounded ring. The design budget is ≤5% over plain and
// 0 allocs/op — the ring is pre-sized, so the trace is one masked store.
// The CI bench gate compares this against BenchmarkHubDemux.
//
// Ring sizing matters here: the recorder rings share the cache with the
// demux working set, so a 64-device fleet wants small per-device rings
// (24 B/event — a 4096-event ring per device is 6 MB of round-robin
// writes and shows up as pure cache-miss overhead). 128 events/device is
// 4× the post-mortem dump window and keeps the whole trace footprint
// under 200 KB; see DESIGN.md §10 for the sizing guidance.
func BenchmarkHubDemuxTraced(b *testing.B) {
	const devices = 64
	hub := core.NewHub(false)
	tracer := tracing.New(tracing.Config{Capacity: 128, Bounded: true})
	frames := make([][]byte, devices)
	for i := range frames {
		m := rf.Message{
			Device: uint32(i + 1), Kind: rf.MsgScroll,
			Seq: 1, AtMillis: 40, Index: int16(i % 10),
		}
		payload, err := m.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = payload
		id := uint32(i + 1)
		hub.Session(id).AttachTracer(tracer.NewRecorder("bench", id))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.Handle(frames[i%devices], time.Duration(i)*time.Millisecond)
	}
	b.StopTimer()
	var recorded uint64
	for _, rec := range tracer.Recorders() {
		recorded += rec.Total()
	}
	if recorded != uint64(b.N) {
		b.Fatalf("recorded %d span events, want %d", recorded, b.N)
	}
}

// BenchmarkHubDemuxParallel measures the hub demux path under concurrency:
// 64 goroutines — one per simulated device — hammer Handle with their own
// device's frames, the access pattern a fleet run produces. Before the hub
// table went read-mostly every call serialised on one global mutex; now the
// steady state is a lock-free table load plus the device's own session
// state, which takes no lock at all on the unreliable, uninstrumented path.
func BenchmarkHubDemuxParallel(b *testing.B) {
	const devices = 64
	hub := core.NewHub(false)
	frames := make([][]byte, devices)
	for i := range frames {
		m := rf.Message{
			Device: uint32(i + 1), Kind: rf.MsgScroll,
			Seq: 1, AtMillis: 40, Index: int16(i % 10),
		}
		payload, err := m.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = payload
		hub.Session(uint32(i + 1)) // pre-register: measure demux, not creation
	}
	if gm := runtime.GOMAXPROCS(0); gm < devices {
		// One runnable context per device even on small machines, so lock
		// convoys (a preempted mutex holder blocking 63 peers) are visible.
		b.SetParallelism((devices + gm - 1) / gm)
	}
	var next atomic.Uint32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := next.Add(1)
		frame := frames[(id-1)%devices]
		at := time.Duration(id) * time.Millisecond
		for pb.Next() {
			hub.Handle(frame, at)
		}
	})
	b.StopTimer()
	if st := hub.Stats(); st.BadFrames != 0 || st.Decoded != uint64(b.N) {
		b.Fatalf("hub stats: %+v, want %d decoded", st, b.N)
	}
}

// BenchmarkHubRegister measures device registration: each iteration
// registers n fresh sequential ids into a new hub, the way a gateway meets
// a fleet joining. B/reg and ns/reg stay flat across the sizes because
// registration is amortised O(1): an id that fits is one slot store, and
// only a doubling growth copies the table.
func BenchmarkHubRegister(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("devices=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hub := core.NewHub(false)
				for id := uint32(1); id <= uint32(n); id++ {
					hub.Session(id)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			regs := float64(n) * float64(b.N)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/regs, "B/reg")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/regs, "ns/reg")
		})
	}
}

// BenchmarkFleetScroll runs a full 16-device fleet — sensors, firmware,
// lossy radios and the shared hub — through the scripted menu workload per
// iteration and reports the simulated decode throughput.
func BenchmarkFleetScroll(b *testing.B) {
	var tot fleet.Totals
	for i := 0; i < b.N; i++ {
		r, err := fleet.New(fleet.Config{Devices: 16, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		results, err := r.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		tot = r.Total(results)
	}
	b.ReportMetric(tot.FramesPerSecond, "vframes/s")
	b.ReportMetric(float64(tot.Events), "events")
}

// BenchmarkFleetNew measures fleet set-up alone: one op assembles the
// perfbench fleet-arq shape, 2,000 reliable devices on a 5%-loss burst
// channel with a lossy ack back-channel, without running them. Every
// device shares the fleet's menu tree and island table, so allocs/op
// counts only per-device state.
func BenchmarkFleetNew(b *testing.B) {
	const devices = 2000
	cfg := fleet.Config{Devices: devices, Seed: 1, Workers: 1, Reliable: true, Core: core.DefaultConfig()}
	cfg.Core.Link.LossProb = 0.05
	cfg.Core.Link.BurstLossProb = 0.01
	cfg.Core.Link.BurstLossLen = 5
	cfg.Core.Link.AckLossProb = 0.05
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA4RFCodec isolates the link codec: encode one telemetry message
// into a frame and decode it back.
func BenchmarkA4RFCodec(b *testing.B) {
	msg := rf.Message{Kind: rf.MsgScroll, Seq: 7, AtMillis: 1234, Index: 3}
	payload, err := msg.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	dec := rf.NewDecoder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := rf.Encode(payload)
		if err != nil {
			b.Fatal(err)
		}
		if got := dec.Feed(frame); len(got) != 1 {
			b.Fatal("frame lost")
		}
	}
}

// BenchmarkFrameRoundTrip is the zero-allocation pipeline end to end:
// marshal a telemetry message into a reusable payload buffer
// (Message.AppendBinary), frame it into a reusable frame buffer
// (AppendEncode), and decode it back through the callback path
// (Decoder.FeedFunc). This is the per-frame work a device and host pay at
// steady state; run with -benchmem, the allocs/op column must read 0.
func BenchmarkFrameRoundTrip(b *testing.B) {
	msg := rf.Message{Device: 9, Kind: rf.MsgScroll, Seq: 7, AtMillis: 1234, Index: 3}
	dec := rf.NewDecoder()
	payload := make([]byte, 0, 64)
	frame := make([]byte, 0, 64)
	delivered := 0
	sink := func(p []byte) { delivered++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Seq = uint16(i)
		payload = msg.AppendBinary(payload[:0])
		var err error
		frame, err = rf.AppendEncode(frame[:0], payload)
		if err != nil {
			b.Fatal(err)
		}
		dec.FeedFunc(frame, sink)
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d frames, want %d", delivered, b.N)
	}
}

// BenchmarkHubnetIngest measures the networked hub's server-side hot path:
// a prebuilt byte stream of framed v1 messages from 64 devices pushed
// through one stream ingest into a 4-shard gateway — stream decode, CRC
// check, message decode and shard routing, no socket. Reported per frame;
// steady state must stay allocation-free (the FeedFunc decode path plus
// already-created sessions).
func BenchmarkHubnetIngest(b *testing.B) {
	const devices, rounds = 64, 8
	gw := hubnet.NewGateway(hubnet.Config{Shards: 4})
	var stream []byte
	payload := make([]byte, 0, 64)
	for seq := 0; seq < rounds; seq++ {
		for dev := uint32(1); dev <= devices; dev++ {
			msg := rf.Message{Device: dev, Kind: rf.MsgScroll, Seq: uint16(seq), AtMillis: uint32(seq) * 40}
			payload = msg.AppendBinary(payload[:0])
			var err error
			stream, err = rf.AppendEncode(stream, payload)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	in := gw.NewIngest(nil)
	in.Feed(stream) // warm-up: create every session before timing
	frames := uint64(devices * rounds)
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Feed(stream)
	}
	b.StopTimer()
	ns := gw.NetStats()
	if ns.Frames != frames*uint64(b.N+1) || ns.BadFrames != 0 {
		b.Fatalf("ingested %d frames (%d bad), want %d", ns.Frames, ns.BadFrames, frames*uint64(b.N+1))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames*uint64(b.N)), "ns/frame")
}

// BenchmarkHubnetSaturate is the ingest saturation grid: prebuilt byte
// streams from `conns` concurrent feeders (each its own goroutine, its own
// Ingest, disjoint device sets — exactly what serveConn does minus the
// socket) pushed into a 4-shard gateway, with the ring pipeline off
// (direct synchronous consume, the PR-8 shape) and on (batched hand-off to
// single-writer shard workers). Reported per frame across all conns;
// steady state must stay allocation-free in both modes. End-to-end ingest
// over real TCP is measured by the perfbench ingest-tcp workload.
func BenchmarkHubnetSaturate(b *testing.B) {
	const devices, rounds, shards = 64, 8, 4
	for _, pipelined := range []bool{false, true} {
		mode := "direct"
		if pipelined {
			mode = "pipeline"
		}
		for _, conns := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/conns=%d", mode, conns), func(b *testing.B) {
				gw := hubnet.NewGateway(hubnet.Config{Shards: shards, Pipeline: pipelined})
				defer gw.Close()
				// Per-conn streams over disjoint device ranges, one frame
				// per device per round, seq counting up.
				streams := make([][]byte, conns)
				payload := make([]byte, 0, 64)
				for c := range streams {
					for seq := 0; seq < rounds; seq++ {
						for d := 0; d < devices/conns; d++ {
							dev := uint32(1 + c*(devices/conns) + d)
							msg := rf.Message{Device: dev, Kind: rf.MsgScroll, Seq: uint16(seq), AtMillis: uint32(seq) * 40}
							payload = msg.AppendBinary(payload[:0])
							var err error
							streams[c], err = rf.AppendEncode(streams[c], payload)
							if err != nil {
								b.Fatal(err)
							}
						}
					}
				}
				// Long-lived feeder goroutines driven by channel tokens, so
				// the timed loop measures ingest, not goroutine spawning,
				// and the steady state stays allocation-free.
				ins := make([]*hubnet.Ingest, conns)
				total := 0
				starts := make([]chan struct{}, conns)
				fed := make(chan struct{}, conns)
				for c := range ins {
					ins[c] = gw.NewIngest(nil)
					ins[c].Feed(streams[c]) // warm-up: sessions + scratch
					total += len(streams[c])
					starts[c] = make(chan struct{})
					go func(c int) {
						for range starts[c] {
							ins[c].Feed(streams[c])
							fed <- struct{}{}
						}
					}(c)
				}
				defer func() {
					for _, ch := range starts {
						close(ch)
					}
				}()
				gw.Drain()
				frames := uint64(devices * rounds)
				b.SetBytes(int64(total))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, ch := range starts {
						ch <- struct{}{}
					}
					for range ins {
						<-fed
					}
					gw.Drain()
				}
				b.StopTimer()
				ns := gw.NetStats()
				want := frames * uint64(b.N+1)
				if ns.Frames != want || ns.BadFrames != 0 || ns.RingDropped != 0 {
					b.Fatalf("ingested %d frames (%d bad, %d dropped), want %d", ns.Frames, ns.BadFrames, ns.RingDropped, want)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames*uint64(b.N)), "ns/frame")
			})
		}
	}
}

// BenchmarkSchedulerWheel measures the default scheduler's hot path:
// schedule three events at firmware-tick distances and dispatch them. At
// steady state the value heap reuses its slots; run with -benchmem, the
// allocs/op column must read 0. The CI bench gate pins both the latency
// and the zero-allocation contract. The name predates the value heap (it
// replaced a timing wheel) and is kept so the gate compares base and head
// under one name.
func BenchmarkSchedulerWheel(b *testing.B) {
	s := sim.NewScheduler(sim.NewClock(0))
	fn := func(time.Duration) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(40*time.Millisecond, fn)
		s.After(41*time.Millisecond, fn)
		s.After(200*time.Millisecond, fn)
		s.Step()
		s.Step()
		s.Step()
	}
}

// BenchmarkSlabTick measures the slab kernel alone: one op is one sweep of
// a 200k-device slab as a single stripe, the perfbench scale workload's
// slab without the scheduler around it, and ns/tick divides the sweep by
// the devices it ticked. The sweep allocates nothing.
func BenchmarkSlabTick(b *testing.B) {
	slab, err := core.NewStateSlab(core.SlabConfig{Devices: 200_000, Seed: 1, LossProb: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	at := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += 40 * time.Millisecond
		slab.TickStripe(0, slab.Len(), at, nil, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slab.Len()), "ns/tick")
}

// BenchmarkFleetScale runs the struct-of-arrays scale path — 10k packed
// devices, one virtual second each, striped across GOMAXPROCS
// schedulers — and reports the real-time factor. This is the devices-vs-
// throughput figure of merit of the scale path at benchmark cadence; the
// perfbench scale workload measures it end to end.
func BenchmarkFleetScale(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunScale(fleet.ScaleConfig{
			Devices:  10_000,
			Seed:     1,
			Duration: time.Second,
			LossProb: 0.01,
		})
		if err != nil {
			b.Fatal(err)
		}
		factor = res.RealTimeFactor
	}
	b.ReportMetric(factor, "rt_factor")
}

// BenchmarkFleetScaleInstrumented is BenchmarkFleetScale with the full ops
// plane attached: a telemetry registry fed by the striped shard collectors,
// an HTTP ops server on a loopback port, and a scraper hitting /metrics at
// roughly 1 Hz while the run is in flight. The tick path stays observation-
// only — worker-local histogram shards, no atomics, no allocations — so the
// design budget over the plain run is ≤5%; the CI bench gate compares the
// two medians.
func BenchmarkFleetScaleInstrumented(b *testing.B) {
	reg := telemetry.New()
	srv, err := ops.Serve("127.0.0.1:0", ops.Config{Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	stop := make(chan struct{})
	var scrapes atomic.Uint64
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				resp, err := http.Get(srv.URL() + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
					scrapes.Add(1)
				}
			}
		}
	}()
	var factor float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunScale(fleet.ScaleConfig{
			Devices:  10_000,
			Seed:     1,
			Duration: time.Second,
			LossProb: 0.01,
			Metrics:  reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		factor = res.RealTimeFactor
	}
	b.StopTimer()
	close(stop)
	if c := reg.Snapshot().Counters[telemetry.MetricFwCycles]; c == 0 {
		b.Fatal("instrumented run recorded no cycles")
	}
	b.ReportMetric(factor, "rt_factor")
	b.ReportMetric(float64(scrapes.Load()), "scrapes")
}

// BenchmarkFleetScaleHistory is BenchmarkFleetScaleInstrumented with the
// telemetry history sampler attached on top: the store snapshots the
// registry every 250 ms into its preallocated rings while a second scraper
// pulls /api/history at roughly 1 Hz. The sample path allocates nothing at
// steady state, so the design budget over the instrumented run is ≤5%; the
// CI bench gate compares the two medians.
func BenchmarkFleetScaleHistory(b *testing.B) {
	reg := telemetry.New()
	hist, err := history.Start(history.Config{
		Registry: reg,
		Windows:  240,
		Interval: 250 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer hist.Stop()
	srv, err := ops.Serve("127.0.0.1:0", ops.Config{Registry: reg, History: hist})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	stop := make(chan struct{})
	var scrapes atomic.Uint64
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for _, path := range []string{"/metrics", "/api/history?k=60"} {
					resp, err := http.Get(srv.URL() + path)
					if err == nil {
						io.Copy(io.Discard, resp.Body) //nolint:errcheck
						resp.Body.Close()
						scrapes.Add(1)
					}
				}
			}
		}
	}()
	var factor float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunScale(fleet.ScaleConfig{
			Devices:  10_000,
			Seed:     1,
			Duration: time.Second,
			LossProb: 0.01,
			Metrics:  reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		factor = res.RealTimeFactor
	}
	b.StopTimer()
	close(stop)
	hist.Sample() // at least one captured window even on sub-250ms runs
	if hist.Captured() == 0 {
		b.Fatal("history sampler captured nothing")
	}
	if c := reg.Snapshot().Counters[telemetry.MetricFwCycles]; c == 0 {
		b.Fatal("instrumented run recorded no cycles")
	}
	b.ReportMetric(factor, "rt_factor")
	b.ReportMetric(float64(scrapes.Load()), "scrapes")
	b.ReportMetric(float64(hist.Captured()), "windows")
}
