// Package hubnet promotes the in-process host Hub into a networked
// service: a frame-ingest gateway that accepts the existing RF wire
// format (sync + length + payload + CRC16, payload = v1 telemetry
// message) over byte streams and demultiplexes decoded messages across N
// hub shards partitioned by device id. The paper's host is a single PC
// behind one receiver (Section 3.2); hubnet is that host grown into a
// deployable ingest tier — same frames, same sessions, same telemetry —
// reachable over loopback TCP or wired in-process for deterministic
// tests.
//
// Three entry points share one Gateway core:
//
//   - Serve listens on TCP and feeds each connection's byte stream
//     through a per-connection Decoder (server.go).
//   - Dial returns the client side: a Conn carrying framed payloads from
//     any number of simulated devices over one socket (client.go).
//   - NewLoopback wires device sinks straight into the gateway through
//     the full encode→decode→shard path with no socket and no extra
//     goroutines, so a seeded fleet run through it is byte-identical to
//     one against a plain in-process hub (loopback.go).
package hubnet

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

// Config parameterises a gateway.
type Config struct {
	// Shards is the number of hub shards; messages route by
	// deviceID % Shards. <= 0 means 1 (a single shard is exactly the
	// in-process hub behind a network edge).
	Shards int
	// KeepLogs makes every shard session retain its event log, like
	// core.NewHub(true). Fleet runs need it for handler replay.
	KeepLogs bool
	// Registry, when non-nil, instruments the gateway: shard sessions
	// record per-device counters (and, except behind Serve, latency
	// histograms), and the gateway registers ONE collector that folds
	// every shard into the canonical hub_* series, adds per-shard
	// breakdowns, and contributes the net_* ingest series. Shards never
	// register their own collectors — the hub_devices gauge must be the
	// fleet total, not the last shard's.
	Registry *telemetry.Registry
	// Now supplies ingest timestamps for frames arriving over TCP, where
	// no virtual clock rides along with the bytes (default: wall time
	// since the server started). A pipelined served gateway also reads
	// it, once per batch, to record net_ring_wait_ms. Loopback ingest
	// ignores it — the device's own virtual arrival time is passed
	// through instead, which is what keeps loopback runs deterministic.
	Now func() time.Duration
	// Pipeline enables the decode-route-consume ingest pipeline:
	// connection goroutines still do batched reads and zero-alloc frame
	// decode, but decoded messages are handed off in batches to per-shard
	// bounded MPSC rings, each drained by one dedicated worker goroutine
	// that owns its hub shard outright — session consume and the ingest
	// trace hop become single-writer, and the edge counters advance once
	// per batch instead of once per frame. Off by default: the direct
	// path consumes synchronously on the connection goroutine, exactly as
	// before. Loopback ingest always runs direct regardless of this flag;
	// its determinism contract requires synchronous consume.
	Pipeline bool
	// RingSlots sets each shard ring's capacity in batches (rounded up to
	// a power of two; <= 0 means 256). Capacity × BatchFrames bounds the
	// messages a shard can have in flight.
	RingSlots int
	// BatchFrames caps the messages per hand-off batch (<= 0 means 64).
	// Larger batches amortise ring and counter traffic further at the
	// cost of per-frame latency under trickle loads; partial batches
	// flush at the end of every read chunk, so latency is bounded by the
	// read cadence either way.
	BatchFrames int
	// OnFull picks the backpressure policy when a shard ring fills:
	// BlockOnFull (default) parks the connection goroutine until the
	// worker catches up — no loss, TCP backpressure propagates to
	// senders; DropOnFull sheds the batch and advances the ring drop
	// counter — bounded ingest latency for best-effort telemetry.
	OnFull FullPolicy
}

// FullPolicy selects what an ingest pipeline does when a shard ring is
// full.
type FullPolicy int

const (
	// BlockOnFull blocks the producing connection goroutine until ring
	// space frees up (lossless backpressure).
	BlockOnFull FullPolicy = iota
	// DropOnFull sheds the whole batch and counts it in RingDropped
	// (bounded latency, best-effort delivery).
	DropOnFull
)

// Gateway is the shared ingest core: N hub shards plus the wire-edge
// decode accounting. It is safe for concurrent use by any number of
// connections and device goroutines; frames from any single device must
// arrive in order (the same contract core.Hub has always had).
type Gateway struct {
	shards   []*core.Hub
	keepLogs bool
	reg      *telemetry.Registry

	// Wire-edge accounting. badFrames mirrors the in-process hub's
	// counter (payloads that failed Message decode); the rest describe
	// the network edge itself.
	badFrames     atomic.Uint64
	connsTotal    atomic.Uint64
	connsOpen     atomic.Int64
	bytesRead     atomic.Uint64
	frames        atomic.Uint64
	shortReads    atomic.Uint64
	resyncs       atomic.Uint64
	acceptRetries atomic.Uint64
	shardFrames   []atomic.Uint64

	// Pipeline state (nil/zero when Config.Pipeline is off): one ring and
	// one worker per shard, plus shutdown plumbing.
	pipeline    bool
	batchFrames int
	blockOnFull bool
	rings       []*ring
	workers     []shardWorker
	done        chan struct{}
	closeOnce   sync.Once
	wg          sync.WaitGroup

	// now is the clock a served gateway stamps ingest with (nil when the
	// gateway is not served). The shard workers read it once per batch
	// to measure ring wait on the same clock as the stamp.
	now func() time.Duration
}

// shardWorker is the drain state for one shard. The worker goroutine is
// the only writer of every field; wait is also read by the collector,
// under waitMu.
type shardWorker struct {
	at  time.Duration                   // current batch's arrival stamp
	pre func(*core.Session, rf.Message) // trace-hop hook, built once

	// wait is the shard's net_ring_wait_ms histogram: each frame's time
	// from its batch's ingest stamp to the start of the batch's consume.
	// Nil unless the gateway is served, pipelined and instrumented.
	waitMu sync.Mutex
	wait   *telemetry.LocalHistogram
}

// observeWait records one batch's ring wait for each of its n frames:
// one lock and one bucket walk per batch. A negative wait counts as 0:
// time.Since is monotonic, but an injected Config.Now need not be.
func (ws *shardWorker) observeWait(wait time.Duration, n int) {
	const perMs = 1.0 / float64(time.Millisecond)
	ws.waitMu.Lock()
	ws.wait.ObserveN(float64(max(wait, 0))*perMs, uint64(n))
	ws.waitMu.Unlock()
}

// NetStats is the gateway's network-edge accounting.
type NetStats struct {
	// ConnsTotal counts connections ever accepted; ConnsOpen the ones
	// currently open.
	ConnsTotal uint64
	ConnsOpen  int64
	// BytesRead is the raw ingest byte count (framing included).
	BytesRead uint64
	// Frames counts CRC-valid frames decoded off the wire; BadFrames the
	// payloads that then failed message decode, plus CRC failures.
	Frames    uint64
	BadFrames uint64
	// ShortReads counts reads that ended mid-frame (the decoder was left
	// holding a partial frame); Resyncs the bytes skipped hunting for
	// sync after corruption.
	ShortReads uint64
	Resyncs    uint64
	// AcceptRetries counts transient Accept errors the server retried
	// (e.g. EMFILE under descriptor pressure) instead of shutting down.
	AcceptRetries uint64
	// Ring counters (zero unless the ingest pipeline is on): batches
	// handed off to shard rings, enqueue calls that blocked on a full
	// ring, batches shed by the drop policy, and the occupied slots
	// summed across rings at the instant of the stats read.
	RingBatches uint64
	RingStalls  uint64
	RingDropped uint64
	RingDepth   uint64
}

// NewGateway builds the shard array. With cfg.Registry set it registers
// the aggregating collector. With cfg.Pipeline set it also builds the
// per-shard rings and starts one worker goroutine per shard; a pipelined
// gateway must be Closed to stop them. Its sessions record
// hub_e2e_latency_ms, so the arrival stamps given to Consume must be on
// the devices' clock, as Loopback's are.
func NewGateway(cfg Config) *Gateway { return newGateway(cfg, nil) }

// newGateway builds a gateway. A non-nil now marks it served: frames are
// stamped on now, the server's clock, so sessions record no end-to-end
// latency (now minus the device's virtual time mixes two clocks) and the
// pipelined shard workers record net_ring_wait_ms on now instead.
func newGateway(cfg Config, now func() time.Duration) *Gateway {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	g := &Gateway{keepLogs: cfg.KeepLogs, reg: cfg.Registry, now: now}
	g.shards = make([]*core.Hub, cfg.Shards)
	for i := range g.shards {
		g.shards[i] = core.NewHubDetached(cfg.KeepLogs, cfg.Registry, now == nil)
	}
	g.shardFrames = make([]atomic.Uint64, cfg.Shards)
	if cfg.Registry != nil {
		cfg.Registry.RegisterCollector(g.collect)
	}
	if cfg.Pipeline {
		g.startPipeline(cfg)
	}
	return g
}

// Shards returns the shard count.
func (g *Gateway) Shards() int { return len(g.shards) }

// ShardFor returns the shard index a device id routes to.
func (g *Gateway) ShardFor(id uint32) int { return int(id % uint32(len(g.shards))) }

// Consume routes one already-decoded message into its shard — the
// decode-once core every ingest path (TCP, loopback) converges on. When
// the destination session carries a trace recorder the ingest hop is
// recorded before the session consumes the message, so a traced frame's
// causal chain shows the network edge between the link delivery and the
// session decision.
func (g *Gateway) Consume(m rf.Message, at time.Duration) {
	sh := g.ShardFor(m.Device)
	g.shardFrames[sh].Add(1)
	s := g.shards[sh].Session(m.Device)
	if rec := s.Tracer(); rec != nil {
		rec.Record(tracing.HopNetIngest, m.Seq, at, m.AtMillis, tracing.PackNetIngest(sh, false))
	}
	s.Consume(m, at)
}

// Session returns the session a device id routes to, creating it if the
// device is new (pre-registration, handler wiring).
func (g *Gateway) Session(id uint32) *core.Session {
	return g.shards[g.ShardFor(id)].Session(id)
}

// Lookup returns the session a device id routes to without creating one.
func (g *Gateway) Lookup(id uint32) (*core.Session, bool) {
	return g.shards[g.ShardFor(id)].Lookup(id)
}

// DeviceStats returns one device's receive counters from its shard.
func (g *Gateway) DeviceStats(id uint32) (core.HostStats, bool) {
	return g.shards[g.ShardFor(id)].DeviceStats(id)
}

// Stats aggregates the per-shard hub stats plus the gateway's own
// bad-frame count (payloads that failed decode at the wire edge and so
// never reached a shard).
func (g *Gateway) Stats() core.HubStats {
	var agg core.HubStats
	for _, st := range g.ShardStats() {
		agg.Devices += st.Devices
		agg.Decoded += st.Decoded
		agg.Events += st.Events
		agg.MissedSeq += st.MissedSeq
		agg.Duplicates += st.Duplicates
		agg.Reordered += st.Reordered
		agg.Stale += st.Stale
		agg.AheadDrops += st.AheadDrops
		agg.Resyncs += st.Resyncs
		agg.BadFrames += st.BadFrames
	}
	agg.BadFrames += g.badFrames.Load()
	return agg
}

// ShardStats returns each shard's hub stats in shard order.
func (g *Gateway) ShardStats() []core.HubStats {
	out := make([]core.HubStats, len(g.shards))
	for i, h := range g.shards {
		out[i] = h.Stats()
	}
	return out
}

// NetStats returns the network-edge accounting.
func (g *Gateway) NetStats() NetStats {
	ns := NetStats{
		ConnsTotal:    g.connsTotal.Load(),
		ConnsOpen:     g.connsOpen.Load(),
		BytesRead:     g.bytesRead.Load(),
		Frames:        g.frames.Load(),
		BadFrames:     g.badFrames.Load(),
		ShortReads:    g.shortReads.Load(),
		Resyncs:       g.resyncs.Load(),
		AcceptRetries: g.acceptRetries.Load(),
	}
	for _, r := range g.rings {
		ns.RingBatches += r.batches.Load()
		ns.RingStalls += r.stalls.Load()
		ns.RingDropped += r.drops.Load()
		ns.RingDepth += r.depth()
	}
	return ns
}

// collect is the gateway's single registered collector: every shard
// folds additively into the canonical hub_* series (sessions, latency
// histograms, bad frames), per-shard breakdown series expose the
// partition balance, and the net_* counters describe the wire edge.
func (g *Gateway) collect(snap *telemetry.Snapshot) {
	devices := 0
	for i, h := range g.shards {
		st := h.Collect(snap)
		devices += st.Devices
		snap.SetGauge(telemetry.ShardName(telemetry.MetricHubDevices, i), float64(st.Devices))
		snap.AddCounter(telemetry.ShardName(telemetry.MetricHubDecoded, i), st.Decoded)
		snap.AddCounter(telemetry.ShardName(telemetry.MetricHubEvents, i), st.Events)
		snap.AddCounter(telemetry.ShardName(telemetry.MetricNetFrames, i), g.shardFrames[i].Load())
	}
	snap.SetGauge(telemetry.MetricHubDevices, float64(devices))
	snap.AddCounter(telemetry.MetricHubBadFrames, g.badFrames.Load())
	snap.SetGauge(telemetry.MetricNetShards, float64(len(g.shards)))
	snap.AddCounter(telemetry.MetricNetConnsTotal, g.connsTotal.Load())
	snap.SetGauge(telemetry.MetricNetConnsOpen, float64(g.connsOpen.Load()))
	snap.AddCounter(telemetry.MetricNetBytesRead, g.bytesRead.Load())
	snap.AddCounter(telemetry.MetricNetFrames, g.frames.Load())
	snap.AddCounter(telemetry.MetricNetBadFrames, g.badFrames.Load())
	snap.AddCounter(telemetry.MetricNetShortReads, g.shortReads.Load())
	snap.AddCounter(telemetry.MetricNetResyncs, g.resyncs.Load())
	snap.AddCounter(telemetry.MetricNetAcceptRetries, g.acceptRetries.Load())
	if g.pipeline {
		snap.SetGauge(telemetry.MetricNetPipeline, 1)
		var depth, batches, stalls, drops uint64
		for i, r := range g.rings {
			depth += r.depth()
			batches += r.batches.Load()
			stalls += r.stalls.Load()
			drops += r.drops.Load()
			snap.SetGauge(telemetry.ShardName(telemetry.MetricNetRingDepth, i), float64(r.depth()))
			snap.AddCounter(telemetry.ShardName(telemetry.MetricNetRingBatches, i), r.batches.Load())
		}
		for i := range g.workers {
			ws := &g.workers[i]
			if ws.wait == nil {
				continue
			}
			ws.waitMu.Lock()
			snap.MergeHistogram(telemetry.MetricNetRingWait, ws.wait.Snapshot())
			ws.waitMu.Unlock()
		}
		snap.SetGauge(telemetry.MetricNetRingDepth, float64(depth))
		snap.AddCounter(telemetry.MetricNetRingBatches, batches)
		snap.AddCounter(telemetry.MetricNetRingStalls, stalls)
		snap.AddCounter(telemetry.MetricNetRingDropped, drops)
	} else {
		snap.SetGauge(telemetry.MetricNetPipeline, 0)
	}
}

// Ingest is one byte stream's decode state: a frame decoder plus resync
// bookkeeping, feeding every decoded frame into the gateway's shards.
// Each TCP connection owns one; benchmarks drive one directly. Not safe
// for concurrent use — one stream, one feeder.
type Ingest struct {
	gw  *Gateway
	dec *rf.Decoder
	now func() time.Duration

	at        time.Duration
	onPayload func([]byte)

	lastResyncs uint64
	lastCRC     uint64

	// Pipeline staging (nil on a direct gateway): one pending batch per
	// shard, enqueued when full and flushed at the end of every Feed, so
	// a partial batch never outlives its read chunk. goodN/badN tally
	// frame outcomes locally during a Feed and fold into the gateway
	// counters once per chunk instead of once per frame.
	pend  [][]rf.Message
	goodN uint64
	badN  uint64
}

// NewIngest returns a fresh per-stream ingest. now supplies arrival
// timestamps per Feed call; nil stamps every frame at 0 (benchmarks).
func (g *Gateway) NewIngest(now func() time.Duration) *Ingest {
	in := &Ingest{gw: g, dec: rf.NewDecoder(), now: now}
	if g.pipeline {
		in.pend = make([][]rf.Message, len(g.shards))
		for i := range in.pend {
			in.pend[i] = make([]rf.Message, 0, g.batchFrames)
		}
		in.onPayload = func(p []byte) {
			in.goodN++
			var m rf.Message
			if !m.Decode(p) {
				in.badN++
				return
			}
			sh := g.ShardFor(m.Device)
			in.pend[sh] = append(in.pend[sh], m)
			if len(in.pend[sh]) == cap(in.pend[sh]) {
				g.rings[sh].enqueue(in.pend[sh], in.at, g.blockOnFull)
				in.pend[sh] = in.pend[sh][:0]
			}
		}
		return in
	}
	in.onPayload = func(p []byte) {
		g.frames.Add(1)
		var m rf.Message
		if !m.Decode(p) {
			g.badFrames.Add(1)
			return
		}
		g.Consume(m, in.at)
	}
	return in
}

// Feed consumes one chunk of raw stream bytes: frames are CRC-checked
// and decoded in place (zero-copy — payloads alias the decoder scratch
// and are fully consumed before return), and the edge counters advance.
// A chunk that ends mid-frame counts one short read; the partial frame
// completes on the next Feed.
func (in *Ingest) Feed(data []byte) {
	in.gw.bytesRead.Add(uint64(len(data)))
	if in.now != nil {
		in.at = in.now()
	}
	in.dec.FeedFunc(data, in.onPayload)
	if in.pend != nil {
		for sh := range in.pend {
			if len(in.pend[sh]) > 0 {
				in.gw.rings[sh].enqueue(in.pend[sh], in.at, in.gw.blockOnFull)
				in.pend[sh] = in.pend[sh][:0]
			}
		}
		if in.goodN > 0 {
			in.gw.frames.Add(in.goodN)
			in.goodN = 0
		}
		if in.badN > 0 {
			in.gw.badFrames.Add(in.badN)
			in.badN = 0
		}
	}
	st := in.dec.Stats()
	if d := st.Resyncs - in.lastResyncs; d > 0 {
		in.gw.resyncs.Add(d)
		in.lastResyncs = st.Resyncs
	}
	if d := st.CRCErrors - in.lastCRC; d > 0 {
		in.gw.badFrames.Add(d)
		in.lastCRC = st.CRCErrors
	}
	if in.dec.Buffered() > 0 {
		in.gw.shortReads.Add(1)
	}
}
