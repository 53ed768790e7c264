package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/menu"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/sim"
)

func TestFleetValidation(t *testing.T) {
	if _, err := New(Config{Devices: 0}); err == nil {
		t.Fatal("zero-device fleet accepted")
	}
}

// streamKey flattens one device's event log into a comparable signature.
func streamKey(events []core.Event) string {
	s := ""
	for _, e := range events {
		s += fmt.Sprintf("%d:%d:%d;", e.Kind, e.Index, e.HostTime/time.Microsecond)
	}
	return s
}

func runFleet(t *testing.T, cfg Config) (*Runner, []Result) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	return r, results
}

func TestFleetDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{Devices: 8, Seed: 42, Workers: 3}
	run := func() ([]string, []Result) {
		r, results := runFleet(t, cfg)
		keys := make([]string, r.Len())
		for i := range keys {
			keys[i] = streamKey(r.Session(i).Events())
		}
		return keys, results
	}
	keysA, resA := run()
	keysB, resB := run()
	for i := range keysA {
		if keysA[i] != keysB[i] {
			t.Fatalf("device %d event stream differs between runs:\n%s\nvs\n%s", i+1, keysA[i], keysB[i])
		}
		if resA[i].FinalCursor != resB[i].FinalCursor || resA[i].Host != resB[i].Host {
			t.Fatalf("device %d results differ: %+v vs %+v", i+1, resA[i], resB[i])
		}
		if keysA[i] == "" {
			t.Fatalf("device %d produced no events", i+1)
		}
	}
}

func TestFleetDevicesAreIndependentlySeeded(t *testing.T) {
	r, _ := runFleet(t, Config{Devices: 4, Seed: 7})
	// With a noisy sensor and a lossy link, two devices with different
	// seeds virtually never produce byte-identical event timelines.
	seen := map[string]int{}
	for i := 0; i < r.Len(); i++ {
		seen[streamKey(r.Session(i).Events())]++
	}
	if len(seen) != r.Len() {
		t.Fatalf("expected %d distinct streams, got %d", r.Len(), len(seen))
	}
}

func TestFleet64ConcurrentDevices(t *testing.T) {
	// The acceptance bar: 64 devices simulating concurrently (this test
	// runs under -race in CI) with every frame attributed at the hub.
	r, results := runFleet(t, Config{Devices: 64, Seed: 1})
	if len(results) != 64 {
		t.Fatalf("results: %d", len(results))
	}
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("device %d: %v", res.Device, res.Err)
		}
		if res.Host.Events == 0 {
			t.Fatalf("device %d received no events", res.Device)
		}
		// The script ends with selecting the middle entry.
		if want := (r.Device(0).Menu.Len() - 1) / 2; res.FinalCursor != want {
			t.Fatalf("device %d final cursor %d, want %d", res.Device, res.FinalCursor, want)
		}
	}
	agg := r.Hub().Stats()
	if agg.Devices != 64 || agg.BadFrames != 0 {
		t.Fatalf("hub aggregate: %+v", agg)
	}
	tot := r.Total(results)
	if tot.Delivered != tot.Decoded {
		t.Fatalf("delivered %d != decoded %d", tot.Delivered, tot.Decoded)
	}
	if tot.FramesPerSecond <= 0 {
		t.Fatalf("throughput %v", tot.FramesPerSecond)
	}
}

func TestFleetAttributesLossPerDevice(t *testing.T) {
	cfg := Config{Devices: 6, Seed: 3, Core: core.DefaultConfig()}
	// A harsh channel: every fifth frame vanishes, nothing is corrupted,
	// so seq gaps at the hub must mirror the per-device link losses.
	cfg.Core.Link.LossProb = 0.2
	cfg.Core.Link.CorruptProb = 0
	r, results := runFleet(t, cfg)
	var totalMissed uint64
	for i, res := range results {
		if res.Link.Lost == 0 {
			t.Fatalf("device %d lost no frames at 20%% loss (sent %d)", res.Device, res.Link.Sent)
		}
		// Gaps are only observable on a delivered successor, so missed can
		// trail lost (tail losses), but never exceed it.
		if res.Host.MissedSeq > res.Link.Lost {
			t.Fatalf("device %d missed %d > lost %d", res.Device, res.Host.MissedSeq, res.Link.Lost)
		}
		if got, _ := r.Hub().DeviceStats(r.ID(i)); got.MissedSeq != res.Host.MissedSeq {
			t.Fatalf("device %d stats mismatch", res.Device)
		}
		totalMissed += res.Host.MissedSeq
	}
	if totalMissed == 0 {
		t.Fatal("no seq gaps observed across the fleet at 20% loss")
	}
}

func TestFleetWithPipeTransport(t *testing.T) {
	cfg := Config{Devices: 5, Seed: 9, Core: core.DefaultConfig()}
	cfg.Core.Transport = func(sched *sim.Scheduler, _ *sim.Rand, sink func([]byte, time.Duration)) (rf.Transport, error) {
		return rf.NewPipe(sched, 2*time.Millisecond, sink)
	}
	r, results := runFleet(t, cfg)
	for _, res := range results {
		if res.Link.Sent == 0 || res.Link.Sent != res.Link.Delivered {
			t.Fatalf("device %d pipe stats: %+v", res.Device, res.Link)
		}
		if res.Host.MissedSeq != 0 {
			t.Fatalf("device %d lost frames on an ideal pipe: %+v", res.Device, res.Host)
		}
	}
	if agg := r.Hub().Stats(); agg.MissedSeq != 0 || agg.Devices != 5 {
		t.Fatalf("hub aggregate: %+v", agg)
	}
}

// TestFleetBytesPerDevice pins the per-device footprint of a built fleet:
// the live heap after New of 2,000 reliable devices (full device graph, ARQ,
// hub session) stays within 7 KiB per device. A menu tree and an island
// table per device (1.6 KB together for the default 12-entry menu) would
// exceed it.
func TestFleetBytesPerDevice(t *testing.T) {
	const devices = 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := New(Config{Devices: devices, Seed: 41, Workers: 1, Reliable: true, Core: core.DefaultConfig()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / devices
	t.Logf("live heap after New: %d B per device", per)
	if per > 7<<10 {
		t.Fatalf("live heap after New is %d B per device, want <= %d B", per, 7<<10)
	}
}

// arqShape is the fleet-arq benchmark's fleet: reliable devices on a
// 5%-loss channel with loss bursts and a lossy ack back-channel.
func arqShape(devices int) Config {
	cfg := Config{Devices: devices, Seed: 1, Workers: 1, Reliable: true, Core: core.DefaultConfig()}
	cfg.Core.Link.LossProb = 0.05
	cfg.Core.Link.BurstLossProb = 0.01
	cfg.Core.Link.BurstLossLen = 5
	cfg.Core.Link.AckLossProb = 0.05
	return cfg
}

// TestFleetObjectsPerDevice pins the heap objects New makes per device for
// the fleet-arq shape. A device is one block holding its parts by value,
// plus one block for the ARQ and the reverse link; what else remains is
// the callbacks that capture a part (link, reverse link, ARQ timer, ack
// sink, firmware tick, five ADC channel sources, the hub session's ack
// hook), the scheduler's first queue slot and the hub session: 17. A part
// allocated on its own again, or a second random stream on the heap,
// adds one; the bound of 20 leaves room for three.
func TestFleetObjectsPerDevice(t *testing.T) {
	const devices = 2000
	cfg := arqShape(devices)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	runtime.KeepAlive(r)
	per := float64(after.Mallocs-before.Mallocs) / devices
	t.Logf("%.2f heap objects per device", per)
	if per > 20 {
		t.Fatalf("New makes %.2f heap objects per device, want <= 20", per)
	}
}

// TestFleetDevicesHaveNoHost pins that a device whose link delivers into a
// fleet's hub builds no Host of its own, while a single device, whose link
// delivers into its Host, still has one.
func TestFleetDevicesHaveNoHost(t *testing.T) {
	r, err := New(Config{Devices: 3, Seed: 2, Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		if h := r.Device(i).Host; h != nil {
			t.Fatalf("fleet device %d built a private Host", i+1)
		}
	}
	single, err := core.NewDevice(core.DefaultConfig(), menu.FlatMenu(4))
	if err != nil {
		t.Fatal(err)
	}
	if single.Host == nil {
		t.Fatal("single device has no Host")
	}
	single.SetDistance(10)
	if err := single.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if single.Host.Stats().Decoded == 0 {
		t.Fatal("single device's Host decoded nothing")
	}
}

// TestFleetSharesTemplate pins what a fleet builds once: every device
// navigates the one menu tree and maps over one island table per level
// size, and Enter and Back take the new level's table from the shared
// cache rather than building their own.
func TestFleetSharesTemplate(t *testing.T) {
	root := menu.PhoneMenu()
	enter := Script{{Entry: 3, Glide: 400 * time.Millisecond, Dwell: 300 * time.Millisecond, Select: true}}
	r, err := New(Config{Devices: 4, Seed: 3, Workers: 2, Menu: root, Script: enter})
	if err != nil {
		t.Fatal(err)
	}
	rootTable := r.Device(0).Firmware.Mapper().Table
	for i := 0; i < r.Len(); i++ {
		dev := r.Device(i)
		if dev.Menu.Root() != root {
			t.Fatalf("device %d navigates its own menu tree", i+1)
		}
		if dev.Firmware.Mapper().Table != rootTable {
			t.Fatalf("device %d maps over its own island table", i+1)
		}
	}
	if _, err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
	sub := r.Device(0).Firmware.Mapper().Table
	if sub == rootTable || sub.Config().Entries != r.Device(0).Menu.Len() {
		t.Fatalf("after Enter device 1 maps %d entries over the root table %v", sub.Config().Entries, sub == rootTable)
	}
	for i := 0; i < r.Len(); i++ {
		dev := r.Device(i)
		if dev.Menu.Depth() != 1 || dev.Firmware.Mapper().Table != sub {
			t.Fatalf("device %d at depth %d does not share the submenu's island table", i+1, dev.Menu.Depth())
		}
	}

	back := append(enter, Step{Entry: 0, Glide: 300 * time.Millisecond, Dwell: 300 * time.Millisecond, Back: true})
	r, err = New(Config{Devices: 4, Seed: 3, Workers: 2, Menu: root, Script: back})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		dev := r.Device(i)
		if dev.Menu.Depth() != 0 || dev.Firmware.Mapper().Table != rootTable {
			t.Fatalf("device %d at depth %d does not map over the cached root table after Back", i+1, dev.Menu.Depth())
		}
	}
}

// TestFleetAllocsPerFrame bounds the device object path's allocations over
// a whole reliable fleet run on a hostile channel (5% loss, loss bursts, a
// lossy ack back-channel), counted from the end of New to the end of RunAll
// and divided by the frames the hub decoded. Link and ack frames, ARQ
// frames, retransmit timers and display rows are reused, and button state
// is held in arrays, so what remains is warm-up (ring slots, free lists and
// row buffers growing to their working size), the session's event log and
// the glide closures of the script. It measures 1.73 (1.87 under -race);
// the bound of 2.25 leaves 0.5 of margin and stays below the 2.73 a
// per-frame allocation on any hop would add.
func TestFleetAllocsPerFrame(t *testing.T) {
	r, err := New(arqShape(500))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	results, err := r.RunAll()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	tot := r.Total(results)
	if tot.Decoded == 0 || tot.Retransmits == 0 {
		t.Fatalf("run exercised no reliable delivery: %+v", tot)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(tot.Decoded)
	t.Logf("%.2f allocs per decoded frame (%d frames)", per, tot.Decoded)
	if per > 2.25 {
		t.Fatalf("%.2f allocs per decoded frame, want <= 2.25", per)
	}
}

func TestFleetCustomScriptAndMenu(t *testing.T) {
	cfg := Config{
		Devices: 3,
		Seed:    5,
		Menu:    menu.FlatMenu(8),
		Script: Script{
			{Entry: 7, Glide: 300 * time.Millisecond, Dwell: 300 * time.Millisecond},
			{Entry: 1, Glide: 300 * time.Millisecond, Dwell: 400 * time.Millisecond},
		},
	}
	_, results := runFleet(t, cfg)
	for _, res := range results {
		if res.FinalCursor != 1 {
			t.Fatalf("device %d cursor %d, want 1", res.Device, res.FinalCursor)
		}
	}
}

func TestFleetScriptErrorSurfaces(t *testing.T) {
	cfg := Config{
		Devices: 2,
		Seed:    1,
		Script:  Script{{Entry: 99, Glide: 100 * time.Millisecond}},
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.RunAll()
	if err == nil {
		t.Fatal("out-of-range script entry did not error")
	}
	for _, res := range results {
		if res.Err == nil {
			t.Fatalf("device %d missing error", res.Device)
		}
	}
}

func TestFleetPerDeviceHandlers(t *testing.T) {
	r, err := New(Config{Devices: 3, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, r.Len())
	for i := 0; i < r.Len(); i++ {
		i := i
		r.Session(i).OnScroll(func(core.Event) { counts[i]++ })
	}
	if _, err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, n := range counts {
		if n == 0 {
			t.Fatalf("device %d scroll handler never fired", i+1)
		}
	}
}

// TestFleetARQGoldenTotals pins the reliable fleet's results at one seed to
// the perfbench fleet-arq workload's smoke shape: 200 devices on a 5%-loss
// channel with loss bursts and a lossy ack back-channel. Any change to the
// device graph, its construction or the hub's event log shows up here as a
// different total or a different event-stream hash, not only as a broken
// invariant.
func TestFleetARQGoldenTotals(t *testing.T) {
	cfg := Config{Devices: 200, Seed: 5, Workers: 1, Reliable: true, Core: core.DefaultConfig()}
	cfg.Core.Link.LossProb = 0.05
	cfg.Core.Link.BurstLossProb = 0.01
	cfg.Core.Link.BurstLossLen = 5
	cfg.Core.Link.AckLossProb = 0.05
	r, results := runFleet(t, cfg)
	tot := r.Total(results)
	got := fmt.Sprintf("sent=%d delivered=%d lost=%d corrupted=%d decoded=%d events=%d retransmits=%d timeouts=%d queue_drops=%d acks_sent=%d acks_lost=%d stale=%d resyncs=%d missed_seq=%d",
		tot.Sent, tot.Delivered, tot.Lost, tot.Corrupted, tot.Decoded, tot.Events, tot.Retransmits,
		tot.Timeouts, tot.QueueDrops, tot.AcksSent, tot.AcksLost, tot.Stale, tot.Resyncs, tot.MissedSeq)
	const want = "sent=7656 delivered=6923 lost=723 corrupted=10 decoded=6923 events=6270 retransmits=1386 timeouts=641 queue_drops=0 acks_sent=6923 acks_lost=352 stale=172 resyncs=0 missed_seq=0"
	if got != want {
		t.Fatalf("fleet-arq totals at seed 5:\n got %s\nwant %s", got, want)
	}
	h := sha256.New()
	for i := 0; i < r.Len(); i++ {
		for _, e := range r.Session(i).Events() {
			fmt.Fprintf(h, "%d %+v\n", i, e)
		}
	}
	const wantHash = "2ea27f424a4d71edab39d171d2ba1aecb6ed6cbf742a7a8a0df43ec92113d397"
	if sum := hex.EncodeToString(h.Sum(nil)); sum != wantHash {
		t.Fatalf("event streams at seed 5 hash to %s, want %s", sum, wantHash)
	}
}
