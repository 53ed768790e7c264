package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

// Session is the host-side receive state for ONE device: sequence-number
// accounting, the retained event log and the registered handlers. A Hub
// owns one session per device id; the single-device Host is a thin wrapper
// around one session.
//
// The receive path is lock-free in the steady state: counters are atomic
// (so telemetry reporters may snapshot a running fleet), the sequence state
// is single-writer (frames for one device must arrive in order, delivered
// by that device's goroutine — in the simulator they are: each device's
// link delivers on that device's scheduler), and handler registration is a
// read-mostly copy-on-write snapshot. Only the retained event log and the
// latency histogram take the session mutex, and only when enabled.
type Session struct {
	device  uint32
	keepLog bool

	// handlers is the copy-on-write snapshot of the registered callbacks;
	// Consume loads it once per frame without locking.
	handlers atomic.Pointer[sessionHandlers]

	stats sessionCounters

	// Single-writer receive state: only the goroutine delivering this
	// device's frames touches these, so they need no synchronisation.
	lastSeq uint16
	haveSeq bool

	// Reliable (ARQ) receive state. With reliable set, frames are admitted
	// strictly in sequence order starting at seq 0, every frame is answered
	// with a cumulative ack through ackFn, and retransmit duplicates are
	// dropped. When the sender abandons frames (queue overflow or retry
	// budget) it announces the hole with an explicit rf.MsgSkip notice
	// occupying the abandoned range, so the receiver advances past gaps
	// with certainty instead of inferring them from retransmission
	// patterns — an inference that go-back-N makes unsound, since a
	// repeated ahead frame may simply be a twice-lost window base.
	// Configured before frames flow (EnableReliable), then read-only on the
	// receive path.
	reliable bool
	ackFn    func(cum uint16)
	awaitSeq uint16

	// trace is the per-device flight recorder, written by the same
	// single-writer goroutine as the sequence state. The demux hot path
	// records exactly ONE hub.demux event per frame (the session outcome is
	// packed into Arg2, so there is no second store); traceSLO caches the
	// tracer's latency objective so the SLO check costs one branch. Both
	// are configured before frames flow (AttachTracer), then read-only.
	trace    *tracing.Recorder
	traceSLO time.Duration

	// mu guards the retained event log, handler registration writes and the
	// latency histogram. The bare demux path (no log, no metrics) never
	// takes it.
	mu     sync.Mutex
	events []logRecord // retained log for tests, replay and the study harness

	// lat records per-frame end-to-end pipeline latency (device stamp →
	// host arrival, milliseconds). It is a LocalHistogram synchronised by
	// s.mu, so the instrumented hot path pays one short critical section
	// for the bucket increment. Nil when the session is uninstrumented or
	// its arrival stamps are on another clock than the device's (a
	// TCP-served gateway), which costs a single predictable branch.
	lat *telemetry.LocalHistogram
	// dispatch is the hub's shared handler+tap dispatch-time histogram.
	// One frame in dispatchSampleEvery is timed, and only when a handler
	// or tap is registered.
	dispatch *telemetry.Histogram
}

// dispatchSampleEvery is the dispatch-timing sample rate: Consume times
// handler and tap dispatch only for frames whose sequence number is a
// multiple of it. Two clock reads cost more than a typical tap, so timing
// every frame would dominate the instrumented consume path. The rule is
// stateless and, because 64 divides 2^16, it samples exactly one frame in
// 64 of a sequence-contiguous stream, across wrap-around too.
const dispatchSampleEvery = 64

// logRecord is one retained event in 24 B, against Event's 56: the
// message fields Event is built from, at their wire widths, and the
// arrival time. A fleet hub retains every event of every device.
type logRecord struct {
	at        time.Duration
	atMillis  uint32
	device    uint32
	index     int16
	island    int16
	voltageMV uint16
	kind      rf.MsgKind
	button    byte
}

// event expands the record into the Event that handlers receive for the
// same message; Events and dispatch both build events here.
func (r *logRecord) event() Event {
	m := rf.Message{AtMillis: r.atMillis}
	return Event{
		Kind:       r.kind,
		Device:     r.device,
		Index:      int(r.index),
		Button:     r.button,
		DeviceTime: m.Timestamp(),
		HostTime:   r.at,
		Voltage:    float64(r.voltageMV) / 1000,
		Island:     int(r.island),
	}
}

// sessionHandlers is one immutable registration snapshot.
type sessionHandlers struct {
	onScroll func(Event)
	onSelect func(Event)
	onLevel  func(Event)
	onState  func(Event)
	taps     []func(Event)
}

// forKind returns the per-kind handler.
func (h *sessionHandlers) forKind(k rf.MsgKind) func(Event) {
	switch k {
	case rf.MsgScroll:
		return h.onScroll
	case rf.MsgSelect:
		return h.onSelect
	case rf.MsgLevel:
		return h.onLevel
	case rf.MsgState:
		return h.onState
	}
	return nil
}

// sessionCounters are the session's receive counters. They are atomic so a
// telemetry reporter may snapshot a running fleet from another goroutine;
// the receive path itself is single-goroutine per device, so every add is
// uncontended.
type sessionCounters struct {
	decoded, badFrames               atomic.Uint64
	missedSeq, duplicates, reordered atomic.Uint64
	stale, aheadDrops, resyncs       atomic.Uint64
	// dropped counts decoded frames that did not become events (reliable-mode
	// skip notices, stale retransmits, ahead-of-sequence arrivals). Events is
	// derived as decoded - dropped, so the in-order hot path pays exactly one
	// atomic add per frame instead of two; only the rare drop paths pay a
	// second.
	dropped atomic.Uint64
}

func (c *sessionCounters) stats() HostStats {
	// Load dropped before decoded: every dropped increment is preceded by a
	// decoded increment, so this order can only under-count drops, keeping
	// the derived Events non-negative. A mid-run snapshot may transiently
	// over-count Events by the frames in flight between the two loads;
	// quiescent reads are exact.
	dropped := c.dropped.Load()
	decoded := c.decoded.Load()
	return HostStats{
		Events:     decoded - dropped,
		Decoded:    decoded,
		BadFrames:  c.badFrames.Load(),
		MissedSeq:  c.missedSeq.Load(),
		Duplicates: c.duplicates.Load(),
		Reordered:  c.reordered.Load(),
		Stale:      c.stale.Load(),
		AheadDrops: c.aheadDrops.Load(),
		Resyncs:    c.resyncs.Load(),
	}
}

// NewSession returns a session for the given device id. With keepLog set
// every event is retained and retrievable via Events.
func NewSession(device uint32, keepLog bool) *Session {
	return &Session{device: device, keepLog: keepLog}
}

// Device returns the device id this session tracks.
func (s *Session) Device() uint32 { return s.device }

// EnableReliable switches the session into reliable (ARQ) receive mode:
// frames are admitted strictly in sequence order starting at seq 0 (the
// firmware's initial sequence number) and every frame — accepted or dropped
// — is answered by passing the cumulative ack to ack, which typically feeds
// an rf.ReverseLink. Call before any frame flows.
func (s *Session) EnableReliable(ack func(cum uint16)) {
	s.reliable = true
	s.ackFn = ack
	s.awaitSeq = 0
}

// AttachTracer equips the session with a per-device flight recorder: every
// demuxed frame records one hub.demux span event carrying its origin tick
// and admission outcome, and a frame whose end-to-end latency exceeds the
// tracer's SLO raises an anomaly. Call before frames flow; a nil recorder
// disables tracing.
func (s *Session) AttachTracer(r *tracing.Recorder) {
	s.trace = r
	s.traceSLO = r.SLO()
}

// Tracer returns the attached flight recorder, nil when tracing is off.
// Ingest paths in front of the session (the networked gateway) use it to
// record their own hop on the same per-device recorder, preserving the
// single-writer contract: whoever delivers a device's frames is the only
// writer of its recorder.
func (s *Session) Tracer() *tracing.Recorder { return s.trace }

// AwaitSeq returns the next sequence number the reliable receive state
// expects — after a full drain it equals the sender's total sequenced
// frames, which is the invariant the fleet's post-drain gap audit checks.
func (s *Session) AwaitSeq() uint16 { return s.awaitSeq }

// admit decides whether a reliable-mode frame enters the pipeline. It
// returns false for frames that must be dropped (stale retransmits,
// ahead-of-sequence arrivals); either way the caller re-acks the cumulative
// position afterwards.
func (s *Session) admit(seq uint16) bool {
	switch {
	case seq == s.awaitSeq:
		// In order: the common case.
	case seq-s.awaitSeq >= 0x8000:
		// Already consumed — a retransmit whose ack was lost or late. The
		// re-ack the caller sends repairs the sender's view.
		s.stats.stale.Add(1)
		return false
	default:
		// Ahead of sequence: a predecessor is still in flight (or lost and
		// awaiting retransmission — go-back-N resends it before this frame)
		// or was abandoned, in which case the sender's MsgSkip notice
		// precedes this frame in the stream. Either way, defer: the stream
		// is seq-contiguous by construction, so the awaited position always
		// arrives eventually. Never guess.
		s.stats.aheadDrops.Add(1)
		return false
	}
	s.awaitSeq = seq + 1
	s.lastSeq = seq
	s.haveSeq = true
	return true
}

// consumeSkip admits a sender abandonment notice: the sender dropped the
// count consecutive sequence numbers ending at m.Seq (queue overflow or
// retry budget) and will never transmit them. The caller re-acks the
// cumulative position afterwards either way. The returned outcome is the
// trace classification of the notice.
func (s *Session) consumeSkip(m rf.Message) tracing.Outcome {
	count := uint16(m.Index)
	if count == 0 || count >= 0x8000 {
		// A skip covering half the sequence space (or nothing) is
		// malformed — no wrapping comparison can place it.
		s.stats.badFrames.Add(1)
		return tracing.OutcomeResync
	}
	last := m.Seq
	first := last - count + 1
	switch {
	case last-s.awaitSeq >= 0x8000:
		// The whole range is already behind us — a retransmitted notice
		// whose ack was lost. The re-ack repairs the sender's view.
		s.stats.stale.Add(1)
		return tracing.OutcomeStale
	case s.awaitSeq-first >= 0x8000:
		// The notice is ahead of sequence: frames before the hole are still
		// in flight. Go-back-N resends them first; defer.
		s.stats.aheadDrops.Add(1)
		return tracing.OutcomeAhead
	default:
		// awaitSeq falls inside [first, last]: everything up to and
		// including last is abandoned. Advance past the hole, counting the
		// loss exactly.
		s.stats.missedSeq.Add(uint64(last - s.awaitSeq + 1))
		s.stats.resyncs.Add(1)
		s.awaitSeq = last + 1
		return tracing.OutcomeResync
	}
}

// attachMetrics equips the session with the hub's shared dispatch-time
// histogram and, when deviceClock is set, its own end-to-end latency
// histogram. deviceClock reports whether the arrival stamps Consume
// receives are on the device's clock (virtual-time delivery); a served
// gateway stamps frames with its wall clock, where at - m.Timestamp()
// is no latency at all. Call before the session is published.
func (s *Session) attachMetrics(dispatch *telemetry.Histogram, deviceClock bool) {
	if deviceClock {
		s.lat = telemetry.NewLocalHistogram(telemetry.LatencyBucketsMs)
	}
	s.dispatch = dispatch
}

// Latency returns a copy of the end-to-end latency histogram, or false
// when the session is uninstrumented. It is the per-device drill-down
// that stays available for sessions whose exported series the telemetry
// budget refused.
func (s *Session) Latency() (telemetry.HistogramSnapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lat == nil {
		return telemetry.HistogramSnapshot{}, false
	}
	return s.lat.Snapshot(), true
}

// collectLatency contributes the session's latency histogram to a
// telemetry snapshot: it always folds into the fleet aggregate, and into a
// per-device series while the snapshot's budget lasts
// (telemetry.Snapshot.AddDeviceLatency). The receive counters are summed
// by the caller and added once (HubStats.contribute).
func (s *Session) collectLatency(snap *telemetry.Snapshot) {
	s.mu.Lock()
	snap.AddDeviceLatency(s.device, s.lat)
	s.mu.Unlock()
}

// updateHandlers applies one registration change as a copy-on-write swap.
func (s *Session) updateHandlers(mut func(*sessionHandlers)) {
	s.mu.Lock()
	next := &sessionHandlers{}
	if cur := s.handlers.Load(); cur != nil {
		*next = *cur
		next.taps = append([]func(Event){}, cur.taps...)
	}
	mut(next)
	s.handlers.Store(next)
	s.mu.Unlock()
}

// OnScroll registers the scroll handler.
func (s *Session) OnScroll(fn func(Event)) {
	s.updateHandlers(func(h *sessionHandlers) { h.onScroll = fn })
}

// OnSelect registers the selection handler.
func (s *Session) OnSelect(fn func(Event)) {
	s.updateHandlers(func(h *sessionHandlers) { h.onSelect = fn })
}

// OnLevel registers the level-change handler.
func (s *Session) OnLevel(fn func(Event)) {
	s.updateHandlers(func(h *sessionHandlers) { h.onLevel = fn })
}

// Tap registers an additional observer invoked for every decoded event,
// independent of the per-kind handlers (used by trace recorders).
func (s *Session) Tap(fn func(Event)) {
	s.updateHandlers(func(h *sessionHandlers) { h.taps = append(h.taps, fn) })
}

// Stats returns the session statistics.
func (s *Session) Stats() HostStats { return s.stats.stats() }

// Events returns the retained event log (empty unless keepLog).
func (s *Session) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	for i := range s.events {
		out[i] = s.events[i].event()
	}
	return out
}

// Handle decodes one raw payload and consumes it. It is a valid rf link
// sink for a device wired directly to this session. The payload is fully
// decoded before returning, so it may alias a transport's reusable buffer.
func (s *Session) Handle(payload []byte, at time.Duration) {
	var m rf.Message
	if !m.Decode(payload) {
		s.stats.badFrames.Add(1)
		return
	}
	s.Consume(m, at)
}

// Consume processes one already-decoded message: sequence accounting, event
// log and handler dispatch. The Hub routes decoded messages here so the
// payload is only unmarshalled once per frame. The steady-state path — no
// event log, no metrics, no handlers — touches only atomic counters and
// single-writer fields: no locks, no allocations.
func (s *Session) Consume(m rf.Message, at time.Duration) {
	s.stats.decoded.Add(1)
	outcome := tracing.OutcomeAdmit
	if s.reliable {
		if m.Kind == rf.MsgSkip {
			// A sender abandonment notice advances the sequence position
			// but carries no event; ack the new position and stop.
			outcome = s.consumeSkip(m)
			s.stats.dropped.Add(1)
			s.trace.Record(tracing.HopHubDemux, m.Seq, at, m.AtMillis,
				tracing.PackDemux(outcome, uint8(m.Kind)))
			if s.ackFn != nil {
				s.ackFn(s.awaitSeq - 1)
			}
			return
		}
		admitted := s.admit(m.Seq)
		if !admitted {
			s.stats.dropped.Add(1)
			if s.trace != nil {
				// admit left awaitSeq untouched on the drop path, so the
				// same wrapping compare it used reconstructs the verdict.
				outcome = tracing.OutcomeAhead
				if m.Seq-s.awaitSeq >= 0x8000 {
					outcome = tracing.OutcomeStale
				}
				s.trace.Record(tracing.HopHubDemux, m.Seq, at, m.AtMillis,
					tracing.PackDemux(outcome, uint8(m.Kind)))
			}
			if s.ackFn != nil {
				s.ackFn(s.awaitSeq - 1)
			}
			return
		}
	} else if s.haveSeq {
		// Wrapping diff: a gap below 0x8000 is frames lost on air; at or
		// above it the frame is a late reordering, not a loss.
		switch gap := m.Seq - s.lastSeq; {
		case gap == 0:
			s.stats.duplicates.Add(1)
			outcome = tracing.OutcomeDuplicate
		case gap == 1:
			// In order.
		case gap < 0x8000:
			s.stats.missedSeq.Add(uint64(gap - 1))
		default:
			s.stats.reordered.Add(1)
			outcome = tracing.OutcomeReordered
		}
	}
	s.lastSeq = m.Seq
	s.haveSeq = true
	if tr := s.trace; tr != nil {
		tr.Record(tracing.HopHubDemux, m.Seq, at, m.AtMillis,
			tracing.PackDemux(outcome, uint8(m.Kind)))
		if slo := s.traceSLO; slo > 0 {
			if lat := at - m.Timestamp(); lat > slo {
				tr.Anomaly(tracing.HopSessionSLO, m.Seq, at,
					uint32(lat/time.Millisecond), 0, "e2e latency above SLO")
			}
		}
	}
	if s.lat != nil {
		const perMs = 1.0 / float64(time.Millisecond)
		s.mu.Lock()
		s.lat.Observe(float64(at-m.Timestamp()) * perMs)
		s.mu.Unlock()
	}

	// The cumulative ack goes out before dispatch, mirroring its pre-event
	// position on the wire: the ack path (ReverseLink → ARQ) runs on the
	// sending device's scheduler and holds no session lock.
	if s.reliable && s.ackFn != nil {
		s.ackFn(s.awaitSeq - 1)
	}

	h := s.handlers.Load()
	var handler func(Event)
	var taps []func(Event)
	if h != nil {
		handler = h.forKind(m.Kind)
		taps = h.taps
	}
	if !s.keepLog && handler == nil && len(taps) == 0 {
		// Bare demux: nobody consumes the event, so it is never built.
		return
	}

	rec := logRecord{
		at:        at,
		atMillis:  m.AtMillis,
		device:    m.Device,
		index:     m.Index,
		island:    m.Island,
		voltageMV: m.VoltageMV,
		kind:      m.Kind,
		button:    m.Button,
	}
	if s.keepLog {
		s.mu.Lock()
		s.events = append(s.events, rec)
		s.mu.Unlock()
	}

	// Handlers run outside any lock so they may call back into the
	// session (Stats, Events) without deadlocking. Dispatch time is
	// sampled one frame in dispatchSampleEvery, and only when there is
	// something to dispatch to, so the bare demux path and 63 of 64
	// dispatched frames never touch the wall clock.
	if handler == nil && len(taps) == 0 {
		return
	}
	ev := rec.event()
	var dispatch *telemetry.Histogram
	var start time.Time
	if m.Seq%dispatchSampleEvery == 0 && s.dispatch != nil {
		dispatch = s.dispatch
		start = time.Now()
	}
	for _, tap := range taps {
		tap(ev)
	}
	if handler != nil {
		handler(ev)
	}
	if dispatch != nil {
		dispatch.Observe(time.Since(start).Seconds())
	}
}
