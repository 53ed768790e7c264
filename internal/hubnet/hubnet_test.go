package hubnet

import (
	"runtime"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// frame marshals a v1 scroll message and wraps it in the RF wire framing.
func frame(t *testing.T, device uint32, seq uint16) []byte {
	t.Helper()
	m := rf.Message{Kind: rf.MsgScroll, Device: device, Seq: seq, AtMillis: uint32(seq) * 40}
	p, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	f, err := rf.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// stream concatenates frames for the given devices, one frame per device
// per round, seq counting up per device.
func stream(t *testing.T, devices []uint32, rounds int) []byte {
	t.Helper()
	var out []byte
	for seq := 0; seq < rounds; seq++ {
		for _, id := range devices {
			out = append(out, frame(t, id, uint16(seq))...)
		}
	}
	return out
}

func TestGatewayShardRouting(t *testing.T) {
	gw := NewGateway(Config{Shards: 4})
	if gw.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", gw.Shards())
	}
	for id := uint32(1); id <= 8; id++ {
		gw.Consume(rf.Message{Kind: rf.MsgScroll, Device: id, Seq: 0}, 0)
		if got, want := gw.ShardFor(id), int(id%4); got != want {
			t.Fatalf("device %d routed to shard %d, want %d", id, got, want)
		}
	}
	agg := gw.Stats()
	if agg.Devices != 8 || agg.Decoded != 8 {
		t.Fatalf("aggregate stats: %+v, want 8 devices / 8 decoded", agg)
	}
	// 8 devices round-robin over 4 shards: exactly 2 per shard.
	for i, st := range gw.ShardStats() {
		if st.Devices != 2 || st.Decoded != 2 {
			t.Fatalf("shard %d: %+v, want 2 devices / 2 decoded", i, st)
		}
	}
	if _, ok := gw.DeviceStats(3); !ok {
		t.Fatal("device 3 invisible through the gateway")
	}
}

func TestGatewayShardCountFloor(t *testing.T) {
	if got := NewGateway(Config{}).Shards(); got != 1 {
		t.Fatalf("zero-shard config built %d shards, want 1", got)
	}
}

func TestIngestStreamWholeAndFragmented(t *testing.T) {
	devices := []uint32{1, 2, 3, 4}
	const rounds = 10
	data := stream(t, devices, rounds)

	// One whole feed: every frame decodes, no short reads.
	whole := NewGateway(Config{Shards: 2})
	whole.NewIngest(nil).Feed(data)
	ns := whole.NetStats()
	if ns.Frames != 40 || ns.BadFrames != 0 || ns.ShortReads != 0 {
		t.Fatalf("whole-feed stats: %+v, want 40 clean frames", ns)
	}
	if ns.BytesRead != uint64(len(data)) {
		t.Fatalf("bytes read %d, want %d", ns.BytesRead, len(data))
	}

	// The same stream one byte at a time: identical decode results, with
	// the partial-frame reads counted.
	frag := NewGateway(Config{Shards: 2})
	in := frag.NewIngest(nil)
	for i := range data {
		in.Feed(data[i : i+1])
	}
	fs := frag.NetStats()
	if fs.Frames != 40 || fs.BadFrames != 0 {
		t.Fatalf("fragmented-feed stats: %+v, want 40 clean frames", fs)
	}
	if fs.ShortReads == 0 {
		t.Fatal("byte-at-a-time feed counted no short reads")
	}
	wa, fa := whole.Stats(), frag.Stats()
	if wa != fa {
		t.Fatalf("fragmentation changed hub accounting:\nwhole %+v\nfrag  %+v", wa, fa)
	}
	for _, id := range devices {
		ws, _ := whole.DeviceStats(id)
		fsd, _ := frag.DeviceStats(id)
		if ws.Decoded != rounds || fsd.Decoded != rounds {
			t.Fatalf("device %d decoded %d/%d, want %d/%d", id, ws.Decoded, fsd.Decoded, rounds, rounds)
		}
	}
}

func TestIngestCorruptionResyncs(t *testing.T) {
	gw := NewGateway(Config{Shards: 1})
	in := gw.NewIngest(nil)
	good := frame(t, 1, 0)
	bad := frame(t, 1, 1)
	bad[len(bad)-1] ^= 0xFF // break the CRC
	in.Feed(good)
	in.Feed(bad)
	in.Feed(frame(t, 1, 2))
	ns := gw.NetStats()
	if ns.Frames != 2 {
		t.Fatalf("frames %d, want 2 (the corrupt one must not count)", ns.Frames)
	}
	if ns.BadFrames == 0 {
		t.Fatal("CRC failure not accounted as a bad frame")
	}
	hs := gw.Stats()
	if hs.Decoded != 2 {
		t.Fatalf("decoded %d, want 2 — the stream did not survive the corruption", hs.Decoded)
	}
	if hs.MissedSeq != 1 {
		t.Fatalf("missed %d, want 1 (the corrupted seq 1)", hs.MissedSeq)
	}
}

func TestIngestUndecodablePayload(t *testing.T) {
	gw := NewGateway(Config{Shards: 1})
	in := gw.NewIngest(nil)
	// CRC-valid frame around a payload Message.Decode rejects: a v0-length
	// payload leading with the v1 magic.
	p := make([]byte, 15)
	p[0] = 0xD5
	f, err := rf.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	in.Feed(f)
	ns := gw.NetStats()
	if ns.Frames != 1 || ns.BadFrames != 1 {
		t.Fatalf("stats %+v, want 1 frame / 1 bad", ns)
	}
	if gw.Stats().Decoded != 0 {
		t.Fatal("undecodable payload reached a shard")
	}
}

func TestIngestTimestampsFrames(t *testing.T) {
	gw := NewGateway(Config{Shards: 1, KeepLogs: true})
	now := 5 * time.Second
	in := gw.NewIngest(func() time.Duration { return now })
	in.Feed(frame(t, 1, 0))
	now = 6 * time.Second
	in.Feed(frame(t, 1, 1))
	events := gw.Session(1).Events()
	if len(events) != 2 {
		t.Fatalf("events %d, want 2", len(events))
	}
	if events[0].HostTime != 5*time.Second || events[1].HostTime != 6*time.Second {
		t.Fatalf("ingest times %v / %v, want the injected 5s / 6s",
			events[0].HostTime, events[1].HostTime)
	}
}

func TestLoopbackRoutesAndAccounts(t *testing.T) {
	lb := NewLoopback(Config{Shards: 3, KeepLogs: true})
	mk := func(device uint32, seq uint16) []byte {
		m := rf.Message{Kind: rf.MsgScroll, Device: device, Seq: seq}
		p, _ := m.MarshalBinary()
		return p
	}
	for seq := uint16(0); seq < 5; seq++ {
		for id := uint32(1); id <= 6; id++ {
			lb.Handle(mk(id, seq), time.Duration(seq)*time.Millisecond)
		}
	}
	gw := lb.Gateway()
	if hs := gw.Stats(); hs.Devices != 6 || hs.Decoded != 30 || hs.MissedSeq != 0 {
		t.Fatalf("loopback hub stats: %+v, want 6 devices / 30 decoded / 0 missed", hs)
	}
	// The payload crossed the real framing: bytes were "read", frames
	// decoded off a stream.
	ns := gw.NetStats()
	if ns.Frames != 30 || ns.BytesRead == 0 {
		t.Fatalf("loopback net stats: %+v", ns)
	}
	// Virtual arrival times pass through untouched.
	events := gw.Session(2).Events()
	if len(events) != 5 || events[4].HostTime != 4*time.Millisecond {
		t.Fatalf("loopback ingest: %d events, last at %v — want 5 events at the device's virtual times",
			len(events), events[len(events)-1].HostTime)
	}
	// A mangled payload is accounted, not crashed on.
	lb.Handle([]byte{0x01, 0x02}, 0)
	if gw.NetStats().BadFrames == 0 {
		t.Fatal("mangled loopback payload not counted")
	}
}

func TestGatewayTelemetryCollector(t *testing.T) {
	reg := telemetry.New()
	gw := NewGateway(Config{Shards: 2, Registry: reg})
	in := gw.NewIngest(nil)
	in.Feed(stream(t, []uint32{1, 2, 3}, 4))
	snap := reg.Snapshot()
	if got := snap.Gauges[telemetry.MetricHubDevices]; got != 3 {
		t.Fatalf("hub_devices = %v, want the fleet total 3 (not one shard's)", got)
	}
	if got := snap.Counters[telemetry.MetricNetFrames]; got != 12 {
		t.Fatalf("net frames counter = %d, want 12", got)
	}
	if got := snap.Gauges[telemetry.MetricNetShards]; got != 2 {
		t.Fatalf("net shards gauge = %v, want 2", got)
	}
	// Per-shard series: device 2 is alone on shard 0; devices 1 and 3
	// share shard 1.
	if got := snap.Gauges[telemetry.ShardName(telemetry.MetricHubDevices, 0)]; got != 1 {
		t.Fatalf("shard 0 devices = %v, want 1", got)
	}
	if got := snap.Gauges[telemetry.ShardName(telemetry.MetricHubDevices, 1)]; got != 2 {
		t.Fatalf("shard 1 devices = %v, want 2", got)
	}
	shardFrames := snap.Counters[telemetry.ShardName(telemetry.MetricNetFrames, 0)] +
		snap.Counters[telemetry.ShardName(telemetry.MetricNetFrames, 1)]
	if shardFrames != 12 {
		t.Fatalf("per-shard frame counters sum to %d, want 12", shardFrames)
	}
}

// TestGatewayHubCountersSumSessions: the collector's hub_* counters, summed
// per shard and added once per shard, equal the sum of every session's own
// counters, and the per-shard series split them by shard.
func TestGatewayHubCountersSumSessions(t *testing.T) {
	const sessions = 1000
	reg := telemetry.New()
	gw := NewGateway(Config{Shards: 2, Registry: reg})
	for d := uint32(1); d <= sessions; d++ {
		seqs := []uint16{0, 1, 2}
		if d%3 == 0 {
			seqs = append(seqs, 5) // gap of two
		}
		if d%5 == 0 {
			seqs = append(seqs, seqs[len(seqs)-1]) // duplicate
		}
		if d%7 == 0 {
			seqs = append(seqs, 0) // late, reordered
		}
		for i, seq := range seqs {
			m := rf.Message{Kind: rf.MsgScroll, Device: d, Seq: seq, AtMillis: 10}
			gw.Consume(m, time.Duration(15+i)*time.Millisecond)
		}
	}
	snap := reg.Snapshot()

	var want core.HubStats
	shardDecoded := make([]uint64, 2)
	for d := uint32(1); d <= sessions; d++ {
		st, ok := gw.DeviceStats(d)
		if !ok {
			t.Fatalf("device %d has no session", d)
		}
		want.Decoded += st.Decoded
		want.Events += st.Events
		want.BadFrames += st.BadFrames
		want.MissedSeq += st.MissedSeq
		want.Duplicates += st.Duplicates
		want.Reordered += st.Reordered
		want.Stale += st.Stale
		want.AheadDrops += st.AheadDrops
		want.Resyncs += st.Resyncs
		shardDecoded[gw.ShardFor(d)] += st.Decoded
	}
	if want.Decoded == 0 || want.MissedSeq == 0 || want.Duplicates == 0 || want.Reordered == 0 {
		t.Fatalf("schedule exercised too little: %+v", want)
	}
	for name, w := range map[string]uint64{
		telemetry.MetricHubDecoded:    want.Decoded,
		telemetry.MetricHubEvents:     want.Events,
		telemetry.MetricHubBadFrames:  want.BadFrames,
		telemetry.MetricHubSeqGaps:    want.MissedSeq,
		telemetry.MetricHubDuplicates: want.Duplicates,
		telemetry.MetricHubReordered:  want.Reordered,
		telemetry.MetricHubStale:      want.Stale,
		telemetry.MetricHubAheadDrops: want.AheadDrops,
		telemetry.MetricHubResyncs:    want.Resyncs,
	} {
		if got := snap.Counters[name]; got != w {
			t.Errorf("%s = %d, want the session sum %d", name, got, w)
		}
	}
	for i, w := range shardDecoded {
		if got := snap.Counters[telemetry.ShardName(telemetry.MetricHubDecoded, i)]; got != w {
			t.Errorf("shard %d decoded = %d, want %d", i, got, w)
		}
	}
	if got := snap.Gauges[telemetry.MetricHubDevices]; got != sessions {
		t.Errorf("hub_devices = %v, want %d", got, sessions)
	}
}

// waitFor polls until cond or the deadline; real-network tests need it
// because server-side ingest lags the client's flush.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServerClientRoundTrip(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const devices, rounds = 8, 25
	for seq := 0; seq < rounds; seq++ {
		for id := uint32(1); id <= devices; id++ {
			m := rf.Message{Kind: rf.MsgScroll, Device: id, Seq: uint16(seq)}
			p, _ := m.MarshalBinary()
			if err := conn.Send(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	gw := srv.Gateway()
	waitFor(t, 5*time.Second, func() bool {
		return gw.NetStats().Frames == devices*rounds
	}, "all frames to ingest")

	if st := conn.Stats(); st.Sent != devices*rounds || st.Delivered != st.Sent {
		t.Fatalf("client accounting: %+v", st)
	}
	hs := gw.Stats()
	if hs.Devices != devices || hs.Decoded != devices*rounds || hs.MissedSeq != 0 || hs.BadFrames != 0 {
		t.Fatalf("server hub stats: %+v", hs)
	}
	ns := gw.NetStats()
	if ns.ConnsTotal != 1 || ns.ConnsOpen != 1 {
		t.Fatalf("conn accounting: %+v", ns)
	}
	// Shard spread: 8 devices over 4 shards, 2 each.
	for i, st := range gw.ShardStats() {
		if st.Devices != 2 {
			t.Fatalf("shard %d has %d devices, want 2", i, st.Devices)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return gw.NetStats().ConnsOpen == 0
	}, "connection close to drain")
}

// TestServerFreshIdSpray is the hostile-client registration case: one
// connection sends every frame under a device id the gateway has never
// seen, so each frame registers a session. Every frame must still be
// decoded and every device registered, and the heap cost per new device
// must be a constant, not a table copy that grows with the fleet.
func TestServerFreshIdSpray(t *testing.T) {
	const devices = 50_000
	// The gateway's per-device heap is one session plus its amortised share
	// of the dense slots and the registration order, about 250 B on amd64;
	// a table copy per registration costs hundreds of KB at this size.
	const maxBytesPerDevice = 1024
	srv, err := Serve("127.0.0.1:0", Config{Shards: 2, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payloads := make([][]byte, devices)
	for i := range payloads {
		m := rf.Message{Kind: rf.MsgScroll, Device: uint32(i + 1)}
		if payloads[i], err = m.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}

	gw := srv.Gateway()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, p := range payloads {
		if err := conn.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, func() bool {
		return gw.NetStats().Frames == devices
	}, "all frames to reach the gateway")
	waitFor(t, 30*time.Second, func() bool {
		return gw.Stats().Decoded == devices
	}, "all frames to be consumed")
	runtime.ReadMemStats(&after)

	if st := conn.Stats(); st.Sent != devices {
		t.Fatalf("client sent %d frames, want %d", st.Sent, devices)
	}
	if hs := gw.Stats(); hs.Devices != devices || hs.Decoded != devices || hs.MissedSeq != 0 || hs.BadFrames != 0 {
		t.Fatalf("gateway stats: %+v, want %d devices and decoded frames", hs, devices)
	}
	perDevice := float64(after.TotalAlloc-before.TotalAlloc) / devices
	t.Logf("%.0f bytes allocated per new device", perDevice)
	if perDevice > maxBytesPerDevice {
		t.Fatalf("%.0f bytes allocated per new device, want at most %d", perDevice, maxBytesPerDevice)
	}
}

func TestFrameSenderMapsSlabSlots(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	fs := NewFrameSender(conn, 1)
	for slot := 0; slot < 5; slot++ {
		fs.Emit(slot, 0, int16(slot), uint32(slot)*40)
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	gw := srv.Gateway()
	waitFor(t, 5*time.Second, func() bool {
		return gw.NetStats().Frames == 5
	}, "emitted frames to ingest")
	// Slab slot s landed as wire device s+1; the reserved id 0 stays empty.
	for id := uint32(1); id <= 5; id++ {
		if st, ok := gw.DeviceStats(id); !ok || st.Decoded != 1 {
			t.Fatalf("device %d: ok=%v %+v, want one decoded frame", id, ok, st)
		}
	}
	if _, ok := gw.DeviceStats(0); ok {
		t.Fatal("reserved device id 0 has a session")
	}
}

func TestConnLatchesWriteErrors(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// An oversized payload is a framing error: rejected, not latched.
	if err := conn.Forward(make([]byte, rf.MaxPayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	if conn.Err() != nil {
		t.Fatal("framing error latched as a stream error")
	}
	p, _ := (rf.Message{Kind: rf.MsgScroll, Device: 1}).MarshalBinary()
	if err := conn.Forward(p); err != nil {
		t.Fatal(err)
	}
	// Kill the server, then write until the failure surfaces (TCP buffers
	// absorb the first writes after the peer vanishes).
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		return conn.Forward(p) != nil
	}, "write error after server shutdown")
	if conn.Err() == nil {
		t.Fatal("stream error not latched")
	}
	if err := conn.Forward(p); err == nil {
		t.Fatal("latched connection accepted a frame")
	}
}
