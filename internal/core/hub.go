package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// HubStats aggregates receive activity across every device a hub serves.
type HubStats struct {
	// Devices is the number of known device sessions.
	Devices int
	// Decoded, Events, MissedSeq, Duplicates, Reordered, Stale, AheadDrops
	// and Resyncs sum the per-device session counters.
	Decoded    uint64
	Events     uint64
	MissedSeq  uint64
	Duplicates uint64
	Reordered  uint64
	Stale      uint64
	AheadDrops uint64
	Resyncs    uint64
	// BadFrames counts payloads that failed to decode; they carry no
	// readable device id, so they are attributed to the hub itself.
	BadFrames uint64
}

// denseLimit bounds the dense (array-indexed) part of the session table.
// Fleet ids are small and sequential (1..n), so almost every lookup is one
// bounds check and one slot load; ids above the limit fall back to a
// concurrent map so a stray 32-bit id cannot balloon the array.
const denseLimit = 1 << 20

// sessionTable is one generation of the hub's dense device→session slots.
// Lookups go through an atomic pointer load plus an atomic slot load, so
// the demux hot path never takes a lock. Registration stores into a free
// slot of the current table in place; only an id past the end grows the
// table, by doubling, into a fresh generation that is then swapped in — so
// the copy is amortised O(1) per registration. A reader still holding the
// previous generation sees nil for an id registered after the growth and
// drops into Hub.Session, which re-checks under the lock.
type sessionTable struct {
	dense []atomic.Pointer[Session] // ids < len(dense); nil when unregistered
}

// lookup returns the dense-table session for a device id, or nil when the
// id is unregistered or outside the table. It is the demux hot path and
// inlines; a nil sends the caller to Hub.Session, which also covers sparse
// ids.
func (t *sessionTable) lookup(id uint32) *Session {
	if id < uint32(len(t.dense)) {
		return t.dense[id].Load()
	}
	return nil
}

var emptyTable = &sessionTable{}

// Hub is the fleet-capable host side: it decodes incoming frames once and
// demultiplexes them by device id onto per-device Sessions. Sessions are
// created on demand, so an unknown device showing up on the air gets its
// own accounting rather than polluting another device's. Legacy v0 frames
// (no device field) land on the device-0 session.
//
// A hub is safe for concurrent use by many device goroutines; frames from
// any single device must arrive in order. The steady-state demux path is
// contention-free: an atomic table load, an atomic slot load and the
// per-device session state — no global lock, so 64 device goroutines demux
// without serialising, and a corrupt-frame storm only touches an atomic
// counter.
type Hub struct {
	keepLogs bool
	// dispatch instruments new sessions: the registry's shared
	// hub_dispatch_seconds histogram, fetched once per hub (nil on a plain
	// hub). deviceClock says whether sessions also keep a latency
	// histogram (see Session.attachMetrics).
	dispatch    *telemetry.Histogram
	deviceClock bool

	table     atomic.Pointer[sessionTable]
	sparse    sync.Map // uint32 → *Session for ids >= denseLimit (rare)
	badFrames atomic.Uint64

	mu    sync.Mutex // serialises registration: slot stores, table growth and the order
	order []uint32   // ids in registration order, for deterministic iteration
}

// find returns the session for any device id, or nil: a dense-table hit,
// else the sparse store for ids at or above denseLimit.
func (h *Hub) find(t *sessionTable, id uint32) *Session {
	if s := t.lookup(id); s != nil || id < denseLimit {
		return s
	}
	if v, ok := h.sparse.Load(id); ok {
		return v.(*Session)
	}
	return nil
}

// NewHub returns an empty hub. With keepLogs set every session retains its
// event log (see Session.Events).
func NewHub(keepLogs bool) *Hub {
	return NewHubWithMetrics(keepLogs, nil)
}

// NewHubWithMetrics returns a hub whose sessions record per-device receive
// counters and end-to-end latency histograms into the registry. The hub
// registers one pull collector: snapshots read the session counters as
// atomics, so the demux hot path pays nothing beyond the per-frame
// latency bucket increment. A nil registry yields a plain hub.
func NewHubWithMetrics(keepLogs bool, reg *telemetry.Registry) *Hub {
	h := NewHubDetached(keepLogs, reg, true)
	if reg != nil {
		reg.RegisterCollector(h.collect)
	}
	return h
}

// NewHubDetached returns a hub whose sessions are instrumented against the
// registry like NewHubWithMetrics, but which does NOT register its own
// pull collector. The networked gateway uses it for hub shards: each
// shard's sessions still record per-device counters, while the gateway
// registers one collector of its own that aggregates every shard via
// Collect — a per-shard collector would overwrite the hub_devices gauge
// with the last shard's count instead of the fleet total.
//
// deviceClock reports whether the arrival stamps given to Consume are on
// the devices' own clock, as virtual-time delivery's are. Only then do
// sessions record hub_e2e_latency_ms; a TCP-served gateway stamps frames
// with its wall clock and passes false.
func NewHubDetached(keepLogs bool, reg *telemetry.Registry, deviceClock bool) *Hub {
	h := &Hub{keepLogs: keepLogs}
	h.table.Store(emptyTable)
	if reg != nil {
		h.dispatch = reg.Histogram(telemetry.MetricHubDispatch, telemetry.DispatchBucketsSec)
		h.deviceClock = deviceClock
	}
	return h
}

// sessions returns every session in registration order.
func (h *Hub) sessionsInOrder() []*Session {
	h.mu.Lock()
	t := h.table.Load()
	out := make([]*Session, 0, len(h.order))
	for _, id := range h.order {
		out = append(out, h.find(t, id))
	}
	h.mu.Unlock()
	return out
}

// collect contributes every session's counters, the aggregate and the
// budgeted per-device latency histograms, and the hub-level gauges to a
// snapshot.
func (h *Hub) collect(snap *telemetry.Snapshot) {
	snap.SetGauge(telemetry.MetricHubDevices, float64(h.Collect(snap).Devices))
}

// Collect contributes the hub's receive counters (summed over its sessions
// plus the hub-level bad frames), the aggregate and the budgeted per-device
// latency histograms to a snapshot, and returns the same aggregate as
// Stats from the one walk over the sessions. Unlike the registered
// collector it does not set the hub_devices gauge, so several hubs (the
// gateway's shards) can fold into one snapshot additively and the caller
// sets the gauge once from the sum; the per-device series budget is the
// snapshot's, so it holds across every hub folded into it.
func (h *Hub) Collect(snap *telemetry.Snapshot) HubStats {
	sessions := h.sessionsInOrder()
	agg := HubStats{Devices: len(sessions), BadFrames: h.badFrames.Load()}
	for _, s := range sessions {
		agg.add(s.Stats())
		s.collectLatency(snap)
	}
	agg.contribute(snap)
	return agg
}

// Session returns the session for the given device id, creating it if the
// device is new. Use it to register per-device handlers before a run.
func (h *Hub) Session(id uint32) *Session {
	if s := h.find(h.table.Load(), id); s != nil {
		return s
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// Re-check under the lock: another goroutine may have registered the
	// device between our lookup and the lock.
	t := h.table.Load()
	if s := h.find(t, id); s != nil {
		return s
	}
	s := NewSession(id, h.keepLogs)
	if h.dispatch != nil {
		s.attachMetrics(h.dispatch, h.deviceClock)
	}
	switch {
	case id < uint32(len(t.dense)):
		t.dense[id].Store(s)
	case id < denseLimit:
		n := len(t.dense)
		for n <= int(id) {
			if n == 0 {
				n = 8
			} else {
				n *= 2
			}
		}
		next := &sessionTable{dense: make([]atomic.Pointer[Session], n)}
		for i := range t.dense {
			next.dense[i].Store(t.dense[i].Load())
		}
		next.dense[id].Store(s)
		h.table.Store(next)
	default:
		h.sparse.Store(id, s)
	}
	h.order = append(h.order, id)
	return s
}

// Lookup returns the session for a device id without creating one.
func (h *Hub) Lookup(id uint32) (*Session, bool) {
	s := h.find(h.table.Load(), id)
	return s, s != nil
}

// Devices returns the known device ids in registration order.
func (h *Hub) Devices() []uint32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]uint32, len(h.order))
	copy(out, h.order)
	return out
}

// Handle is the shared rf link sink: it decodes one payload and routes it
// to the sending device's session. Many device links may point here. The
// payload is fully decoded before returning, so it may alias a transport's
// reusable buffer; the steady-state path performs no allocation and takes
// no lock.
func (h *Hub) Handle(payload []byte, at time.Duration) {
	var m rf.Message
	if !m.Decode(payload) {
		h.badFrames.Add(1)
		return
	}
	h.Consume(m, at)
}

// Consume routes an already-decoded message to the sending device's
// session — the decode-once entry point for ingest paths (the networked
// gateway) that decoded the frame at the wire edge. Same concurrency
// contract as Handle.
func (h *Hub) Consume(m rf.Message, at time.Duration) {
	s := h.table.Load().lookup(m.Device)
	if s == nil {
		s = h.Session(m.Device)
	}
	// Session state is touched without any hub lock: one device's frames
	// never block another device's.
	s.Consume(m, at)
}

// ConsumeBatch routes a batch of already-decoded messages at one timestamp.
// It is the single-writer drain path for a pipelined ingest tier: the
// routing table is loaded once per batch instead of once per message, and is
// only re-loaded after an unknown device forces a registration. The optional
// pre hook runs before each message is consumed, with the resolved session —
// the gateway uses it to record the ingest trace hop without a second table
// lookup. Same concurrency contract as Consume: frames from any single
// device must arrive in order (here, within and across batches).
func (h *Hub) ConsumeBatch(ms []rf.Message, at time.Duration, pre func(*Session, rf.Message)) {
	t := h.table.Load()
	for _, m := range ms {
		s := t.lookup(m.Device)
		if s == nil {
			s = h.Session(m.Device)
			t = h.table.Load()
		}
		if pre != nil {
			pre(s, m)
		}
		s.Consume(m, at)
	}
}

// Stats aggregates the per-device session counters.
func (h *Hub) Stats() HubStats {
	sessions := h.sessionsInOrder()
	agg := HubStats{Devices: len(sessions), BadFrames: h.badFrames.Load()}
	for _, s := range sessions {
		agg.add(s.Stats())
	}
	return agg
}

// add folds one session's counters into the aggregate.
func (a *HubStats) add(st HostStats) {
	a.Decoded += st.Decoded
	a.Events += st.Events
	a.MissedSeq += st.MissedSeq
	a.Duplicates += st.Duplicates
	a.Reordered += st.Reordered
	a.Stale += st.Stale
	a.AheadDrops += st.AheadDrops
	a.Resyncs += st.Resyncs
	a.BadFrames += st.BadFrames
}

// contribute adds the aggregate's receive counters to a snapshot: one
// map write per counter per hub, however many sessions it folds.
func (a *HubStats) contribute(snap *telemetry.Snapshot) {
	snap.AddCounter(telemetry.MetricHubDecoded, a.Decoded)
	snap.AddCounter(telemetry.MetricHubEvents, a.Events)
	snap.AddCounter(telemetry.MetricHubBadFrames, a.BadFrames)
	snap.AddCounter(telemetry.MetricHubSeqGaps, a.MissedSeq)
	snap.AddCounter(telemetry.MetricHubDuplicates, a.Duplicates)
	snap.AddCounter(telemetry.MetricHubReordered, a.Reordered)
	snap.AddCounter(telemetry.MetricHubStale, a.Stale)
	snap.AddCounter(telemetry.MetricHubAheadDrops, a.AheadDrops)
	snap.AddCounter(telemetry.MetricHubResyncs, a.Resyncs)
}

// DeviceStats returns one device's receive counters.
func (h *Hub) DeviceStats(id uint32) (HostStats, bool) {
	s, ok := h.Lookup(id)
	if !ok {
		return HostStats{}, false
	}
	return s.Stats(), true
}
