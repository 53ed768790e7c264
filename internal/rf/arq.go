package rf

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/hcilab/distscroll/internal/sim"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

// This file is the reliable-delivery (ARQ) layer on top of the lossy RF
// channel model. The paper's device is "wirelessly linked to a PC"
// (Section 3.2) over a Smart-Its class radio that loses and corrupts
// frames; without repair a dropped MsgSelect silently loses a user's menu
// selection. The ARQ turns the channel into a guaranteed in-order stream:
//
//   - ARQ is the device-side sender: a bounded in-flight window plus a
//     bounded backlog queue, a go-back-N retransmit timer on the oldest
//     unacked frame with exponential backoff and jitter, and a drop-oldest
//     overflow policy so a stalled channel degrades gracefully instead of
//     growing without bound. Abandoned frames (overflow or retry budget)
//     are never silently skipped: a MsgSkip filler takes over their
//     sequence range, so the stream the receiver sees stays contiguous.
//   - ReverseLink is the host→device ack back-channel carrying MsgAck
//     control messages (ordinary v1 frames), itself lossy (AckLossProb)
//     with the same latency/jitter model as the forward path.
//   - The receiver (core.Session in reliable mode) admits frames strictly
//     in sequence order and answers every frame with a cumulative ack.
//
// Everything runs on the owning device's scheduler, so a reliable device
// remains a pure function of its seed.

// ARQConfig parameterises the reliable-delivery layer. Zero fields take the
// defaults below.
type ARQConfig struct {
	// Window bounds how many frames may be in flight (sent, unacked) at
	// once. Default 8.
	Window int
	// Queue bounds the backlog of frames waiting for a window slot. When it
	// overflows the OLDEST queued payloads are abandoned (and counted) and
	// collapse into a single MsgSkip filler announcing the hole, trading a
	// bounded, receiver-visible gap for bounded memory — graceful
	// degradation under sustained overload. Default 64.
	Queue int
	// RTO is the initial retransmit timeout, measured from the estimated
	// transmit completion of the newest in-flight frame. Default 60ms
	// (comfortably above one 19.2 kbit/s frame time plus a round trip).
	RTO time.Duration
	// MaxRTO caps the exponential backoff. Default 1s.
	MaxRTO time.Duration
	// Backoff multiplies RTO after every timeout without progress.
	// Default 2.
	Backoff float64
	// JitterFrac randomises each timeout by Uniform(0, JitterFrac*RTO) so a
	// fleet's retransmissions do not synchronise. Default 0.2.
	JitterFrac float64
	// MaxRetries bounds per-frame transmit attempts; a frame exceeding it
	// is abandoned (and counted) and replaced in place by a MsgSkip filler
	// so the stream stays contiguous. <= 0 means retry forever, which is
	// the default: delivery is guaranteed as long as the channel ever lets
	// a frame through.
	MaxRetries int
}

// withDefaults fills zero fields.
func (c ARQConfig) withDefaults() ARQConfig {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.RTO <= 0 {
		c.RTO = 60 * time.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = time.Second
	}
	if c.Backoff < 1 {
		c.Backoff = 2
	}
	if c.JitterFrac < 0 {
		c.JitterFrac = 0
	} else if c.JitterFrac == 0 {
		c.JitterFrac = 0.2
	}
	return c
}

// ARQStats counts reliable-delivery activity.
type ARQStats struct {
	// Enqueued counts payloads handed to Send; Acked the frames confirmed
	// by a cumulative ack.
	Enqueued uint64
	Acked    uint64
	// Retransmits counts extra transmissions beyond each frame's first;
	// Timeouts the retransmit timer firings that found unacked frames.
	Retransmits uint64
	Timeouts    uint64
	// AcksReceived counts acks that reached the device; DupAcks the subset
	// that confirmed nothing new; BadAcks reverse-channel payloads that
	// failed to parse as MsgAck.
	AcksReceived uint64
	DupAcks      uint64
	BadAcks      uint64
	// QueueDrops counts payloads abandoned by the drop-oldest overflow
	// policy; RetryDrops payloads that exhausted MaxRetries. Both kinds are
	// announced to the receiver with MsgSkip fillers.
	QueueDrops uint64
	RetryDrops uint64
}

// arqCounters are atomic so a telemetry reporter may snapshot a running
// fleet from another goroutine.
type arqCounters struct {
	enqueued, acked, retransmits, timeouts atomic.Uint64
	acksReceived, dupAcks, badAcks         atomic.Uint64
	queueDrops, retryDrops                 atomic.Uint64
}

func (c *arqCounters) stats() ARQStats {
	return ARQStats{
		Enqueued:     c.enqueued.Load(),
		Acked:        c.acked.Load(),
		Retransmits:  c.retransmits.Load(),
		Timeouts:     c.timeouts.Load(),
		AcksReceived: c.acksReceived.Load(),
		DupAcks:      c.dupAcks.Load(),
		BadAcks:      c.badAcks.Load(),
		QueueDrops:   c.queueDrops.Load(),
		RetryDrops:   c.retryDrops.Load(),
	}
}

// arqFrame is one payload tracked by the sender. A skip frame is a filler
// the sender substitutes for abandoned payloads: it occupies their sequence
// range so the stream stays contiguous, and carries a MsgSkip notice telling
// the receiver to advance past the hole (skipCount seqs ending at seq).
type arqFrame struct {
	seq uint16
	ver PayloadVersion
	// device is extracted once at enqueue (PayloadDevice), so converting the
	// frame into a skip filler never needs to re-parse the payload — a
	// sequenced payload that does not round-trip through Message must still
	// get a filler, or the receiver waits on its seq forever.
	device    uint32
	payload   []byte
	attempts  int
	skip      bool
	skipCount uint16
}

// ARQ is the device-side reliable sender wrapping an inner Transport
// (usually the lossy *Link). It implements Transport and VersionedSender,
// so it slots in wherever the firmware expects a plain channel. It is
// single-goroutine like the rest of a device: Send, HandleAck and the timer
// callbacks all run on the device's scheduler.
type ARQ struct {
	cfg   ARQConfig
	sched *sim.Scheduler
	rng   *sim.Rand
	tx    Transport
	cnt   arqCounters
	trace *tracing.Recorder

	inflight []*arqFrame // oldest first, len <= cfg.Window
	queue    []*arqFrame // backlog, len <= cfg.Queue
	// free holds acked and merged frames for reuse; each keeps its payload
	// capacity, so a warm sender copies payloads without allocating.
	free []*arqFrame
	rto  time.Duration
	gen  int // retransmit-timer generation; bumping it disarms old timers
	// arms is a min-heap of the armed timers still pending in the
	// scheduler, ordered by (deadline, gen): the order the scheduler fires
	// them in. fire, built once, pops the head to learn which arm is firing.
	arms []timerArm
	fire func(at time.Duration)
	// lastTxEnd is the estimated completion time of the newest transmission,
	// so the timeout covers radio serialisation of a full window.
	lastTxEnd time.Duration
}

// Init builds, in place at a, a reliable sender wrapping an inner
// transport. rng may be nil, in which case timeouts are not jittered. An
// owner holds its ARQ by value; the timer callback captures a, so an ARQ
// must not be copied once built.
func (a *ARQ) Init(cfg ARQConfig, sched *sim.Scheduler, rng *sim.Rand, tx Transport) error {
	if sched == nil {
		return fmt.Errorf("rf: arq: scheduler is required")
	}
	if tx == nil {
		return fmt.Errorf("rf: arq: inner transport is required")
	}
	cfg = cfg.withDefaults()
	*a = ARQ{cfg: cfg, sched: sched, rng: rng, tx: tx, rto: cfg.RTO}
	a.fire = func(time.Duration) { a.onTimer(a.popArm()) }
	return nil
}

// Stats returns the reliable-delivery counters.
func (a *ARQ) Stats() ARQStats { return a.cnt.stats() }

// SetTracer attaches a per-device flight recorder. The sender records
// arq.enqueue/arq.tx/arq.retx/arq.ack span events on it and raises
// anomalies (with a post-mortem dump naming the abandoned seq range) when
// the retry budget or backlog policy gives a frame up. A nil recorder
// disables tracing.
func (a *ARQ) SetTracer(r *tracing.Recorder) { a.trace = r }

// Outstanding reports how many frames are still unconfirmed (in flight or
// queued). A fleet drains a reliable device until this reaches zero.
func (a *ARQ) Outstanding() int { return len(a.inflight) + len(a.queue) }

// Collect contributes the ARQ counters to a telemetry snapshot.
func (a *ARQ) Collect(s *telemetry.Snapshot) {
	st := a.Stats()
	s.AddCounter(telemetry.MetricARQEnqueued, st.Enqueued)
	s.AddCounter(telemetry.MetricARQAcked, st.Acked)
	s.AddCounter(telemetry.MetricARQRetransmits, st.Retransmits)
	s.AddCounter(telemetry.MetricARQTimeouts, st.Timeouts)
	s.AddCounter(telemetry.MetricARQAcksReceived, st.AcksReceived)
	s.AddCounter(telemetry.MetricARQDupAcks, st.DupAcks)
	s.AddCounter(telemetry.MetricARQQueueDrops, st.QueueDrops)
	s.AddCounter(telemetry.MetricARQRetryDrops, st.RetryDrops)
}

// Send enqueues a payload for reliable delivery, classifying its version
// with VersionOf.
func (a *ARQ) Send(payload []byte) (time.Duration, error) {
	return a.SendTagged(payload, VersionOf(payload))
}

// SendTagged enqueues a payload whose wire-format version the caller knows.
// Payloads too short to carry a sequence number bypass the ARQ and go out
// unreliably — there is nothing to match an ack against.
func (a *ARQ) SendTagged(payload []byte, ver PayloadVersion) (time.Duration, error) {
	seq, ok := PayloadSeq(payload)
	if !ok {
		return a.rawSend(payload, ver)
	}
	a.cnt.enqueued.Add(1)
	a.trace.Record(tracing.HopArqEnqueue, seq, a.sched.Clock().Now(),
		uint32(len(a.inflight)+len(a.queue)), 0)
	fr := a.newFrame(seq, ver, payload)
	if len(a.inflight) < a.cfg.Window {
		wasEmpty := len(a.inflight) == 0
		a.inflight = append(a.inflight, fr)
		at, err := a.transmit(fr)
		if wasEmpty {
			a.armTimer()
		}
		return at, err
	}
	// Drop-oldest overflow: the stalest backlog payloads are abandoned so
	// fresh input keeps flowing, but their sequence numbers are not simply
	// skipped — they collapse into one skip filler that announces the hole
	// to the receiver, so the stream stays contiguous and the receiver
	// advances past the gap with certainty.
	for len(a.queue) >= a.cfg.Queue {
		// The merge head is the first element that is not already a filler at
		// the widest range a skip notice can represent (half the sequence
		// space). A maxed filler is immutable: widening it once clamped used
		// to slide its end seq forward while the count stayed put, silently
		// shrinking the announced range from the front — the receiver then
		// classified the notice as ahead of its cursor and stalled forever.
		// Maxed fillers are instead left in place (a frame of overshoot per
		// 32767 drops) and merging continues behind them.
		h := 0
		for h < len(a.queue) && a.queue[h].skip && a.queue[h].skipCount >= 0x7fff {
			h++
		}
		if h >= a.cfg.Queue {
			// The whole budget is maxed fillers; nothing can be collapsed.
			a.queue = append(a.queue, fr)
			return a.sched.Clock().Now(), nil
		}
		head := a.queue[h]
		switch {
		case head.skip && len(a.queue) > h+1:
			// Extend the filler over the oldest real payload, freeing a slot.
			// The h-scan guarantees head is below the clamp, and fillers only
			// ever form a prefix of the queue, so queue[h+1] is a real frame
			// covering exactly one seq.
			head.seq = a.queue[h+1].seq
			head.skipCount++
			a.free = append(a.free, a.queue[h+1])
			a.queue = cut(a.queue, h+1, 1)
			a.cnt.queueDrops.Add(1)
			a.trace.Record(tracing.HopArqOverflow, head.seq, a.sched.Clock().Now(),
				uint32(head.skipCount), 0)
			a.refreshSkip(head)
		case !head.skip:
			// Abandon the oldest payload in place; the next loop pass merges
			// its successor into the filler and frees the slot.
			a.toSkip(head)
			a.cnt.queueDrops.Add(1)
			a.trace.Record(tracing.HopArqOverflow, head.seq, a.sched.Clock().Now(),
				uint32(head.skipCount), 0)
		default:
			// The queue is a single filler already; admit the new frame with
			// one slot of transient overshoot rather than dropping it.
			a.queue = append(a.queue, fr)
			return a.sched.Clock().Now(), nil
		}
	}
	a.queue = append(a.queue, fr)
	return a.sched.Clock().Now(), nil
}

// newFrame tracks a copy of payload, reusing a released frame and its
// payload buffer when one is free.
func (a *ARQ) newFrame(seq uint16, ver PayloadVersion, payload []byte) *arqFrame {
	var fr *arqFrame
	if n := len(a.free); n > 0 {
		fr, a.free = a.free[n-1], a.free[:n-1]
	} else {
		fr = new(arqFrame)
	}
	*fr = arqFrame{seq: seq, ver: ver, device: PayloadDevice(payload),
		payload: append(fr.payload[:0], payload...)}
	return fr
}

// cut removes s[i:i+n] in place, clearing the vacated tail so the backing
// array does not keep stale frame pointers.
func cut(s []*arqFrame, i, n int) []*arqFrame {
	k := copy(s[i:], s[i+n:])
	clear(s[i+k:])
	return s[:i+k]
}

// toSkip converts a tracked frame into a skip filler covering its own
// sequence number. It never fails: the frame entered the window because
// PayloadSeq found a sequence number, so that seq MUST be announced to the
// receiver even when the payload does not round-trip through Message — a
// silently dropped seq is a phantom gap the reliable receiver waits on
// forever. The device id was captured at enqueue for exactly this case.
func (a *ARQ) toSkip(fr *arqFrame) {
	fr.skip, fr.skipCount, fr.attempts = true, 1, 0
	a.refreshSkip(fr)
}

// refreshSkip rebuilds a filler's MsgSkip payload from its current range,
// in the frame's own payload buffer.
func (a *ARQ) refreshSkip(fr *arqFrame) {
	fr.payload = appendSkip(fr.payload[:0], fr.device, fr.seq, fr.skipCount, fr.ver,
		uint32(a.sched.Clock().Now()/time.Millisecond))
}

// appendSkip appends a MsgSkip notice covering count seqs ending at last to
// dst.
func appendSkip(dst []byte, device uint32, last, count uint16, ver PayloadVersion, atMillis uint32) []byte {
	m := Message{Kind: MsgSkip, Device: device, Seq: last, Index: int16(count), AtMillis: atMillis}
	if ver == PayloadV0 {
		dst = grow(dst, msgLenV0)
		m.putV0Body(dst[len(dst)-msgLenV0:])
		return dst
	}
	return m.AppendBinary(dst)
}

// rawSend bypasses reliability for unsequenced payloads.
func (a *ARQ) rawSend(payload []byte, ver PayloadVersion) (time.Duration, error) {
	if vs, ok := a.tx.(VersionedSender); ok {
		return vs.SendTagged(payload, ver)
	}
	return a.tx.Send(payload)
}

// transmit pushes one tracked frame into the inner channel.
func (a *ARQ) transmit(fr *arqFrame) (time.Duration, error) {
	fr.attempts++
	if fr.attempts > 1 {
		a.cnt.retransmits.Add(1)
		a.trace.Record(tracing.HopArqRetx, fr.seq, a.sched.Clock().Now(),
			uint32(fr.attempts), 0)
	} else {
		a.trace.Record(tracing.HopArqTx, fr.seq, a.sched.Clock().Now(), 1, 0)
	}
	at, err := a.rawSend(fr.payload, fr.ver)
	if err == nil && at > a.lastTxEnd {
		a.lastTxEnd = at
	}
	return at, err
}

// armTimer schedules the retransmit timeout for the current window,
// invalidating any previously armed timer. No-op when nothing is in flight.
func (a *ARQ) armTimer() {
	a.gen++
	if len(a.inflight) == 0 {
		return
	}
	d := a.rto
	if a.cfg.JitterFrac > 0 && a.rng != nil {
		d += time.Duration(a.rng.Uniform(0, a.cfg.JitterFrac*float64(d)))
	}
	deadline := a.lastTxEnd + d
	if now := a.sched.Clock().Now(); deadline < now {
		deadline = now + d
	}
	a.pushArm(timerArm{at: deadline, gen: a.gen})
	a.sched.At(deadline, a.fire)
}

// timerArm is one scheduled retransmit timeout: its deadline and the
// generation it was armed under.
type timerArm struct {
	at  time.Duration
	gen int
}

func (t timerArm) before(o timerArm) bool {
	return t.at < o.at || (t.at == o.at && t.gen < o.gen)
}

// pushArm records an armed timer. The scheduler fires events in (time,
// schedule order); a deadline is never in the past, so it fires at exactly
// its deadline, and gen grows with schedule order. This ARQ's timers
// therefore fire in (deadline, gen) order, the heap's order, and every
// firing pops the arm it belongs to: stale arms are recognised exactly,
// as a closure capturing gen would.
func (a *ARQ) pushArm(t timerArm) {
	h := append(a.arms, timerArm{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !t.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = t
	a.arms = h
}

// popArm removes the earliest armed timer and returns its generation.
func (a *ARQ) popArm() int {
	h := a.arms
	n := len(h) - 1
	top, last := h[0], h[n]
	h = h[:n]
	a.arms = h
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	return top.gen
}

// onTimer fires the retransmit timeout: every in-flight frame is resent
// oldest-first (go-back-N — with FIFO link delivery the receiver accepts
// the whole window in order once the base gets through), the timeout backs
// off exponentially, and frames out of retries are abandoned.
func (a *ARQ) onTimer(gen int) {
	if gen != a.gen || len(a.inflight) == 0 {
		return
	}
	a.cnt.timeouts.Add(1)
	kept := a.inflight[:0]
	var dropFirst, dropLast uint16
	dropped := 0
	for _, fr := range a.inflight {
		if a.cfg.MaxRetries > 0 && !fr.skip && fr.attempts >= a.cfg.MaxRetries {
			// Out of retries: the payload is abandoned, but its sequence
			// number must still reach the receiver — replace it with a skip
			// filler (fillers are exempt from the budget; they are the
			// mechanism that keeps the stream coherent after giving up).
			a.cnt.retryDrops.Add(1)
			if dropped == 0 {
				dropFirst = fr.seq
			}
			dropLast = fr.seq
			dropped++
			a.toSkip(fr)
		}
		a.transmit(fr)
		kept = append(kept, fr)
	}
	a.inflight = kept
	if dropped > 0 && a.trace != nil {
		// One anomaly covers the whole pass: the flight-recorder dump names
		// the exact abandoned seq range so a post-mortem can correlate it
		// with the receiver's resync. The span is computed in wrapping
		// uint16 arithmetic so a window straddling 0xFFFF→0 reports its true
		// width instead of an inverted (negative-looking) range.
		a.trace.Anomaly(tracing.HopArqExhausted, dropLast, a.sched.Clock().Now(),
			uint32(dropped), 0,
			fmt.Sprintf("retry budget exhausted: seqs %d..%d abandoned (span %d) after %d attempts",
				dropFirst, dropLast, dropLast-dropFirst+1, a.cfg.MaxRetries))
	}
	a.promote()
	a.rto = time.Duration(float64(a.rto) * a.cfg.Backoff)
	if a.rto > a.cfg.MaxRTO {
		a.rto = a.cfg.MaxRTO
	}
	a.armTimer()
}

// promote moves backlog frames into free window slots and transmits them.
func (a *ARQ) promote() {
	k := 0
	for len(a.inflight) < a.cfg.Window && k < len(a.queue) {
		fr := a.queue[k]
		k++
		a.inflight = append(a.inflight, fr)
		a.transmit(fr)
	}
	a.queue = cut(a.queue, 0, k)
}

// HandleAck is the ReverseLink sink: it parses one MsgAck payload and
// slides the window past every frame the cumulative ack covers. Progress
// resets the backoff; an ack confirming nothing counts as a duplicate.
func (a *ARQ) HandleAck(payload []byte, at time.Duration) {
	var m Message
	if !m.Decode(payload) || m.Kind != MsgAck {
		a.cnt.badAcks.Add(1)
		return
	}
	a.cnt.acksReceived.Add(1)
	k := 0
	for k < len(a.inflight) && seqLE(a.inflight[k].seq, m.Seq) {
		a.free = append(a.free, a.inflight[k])
		a.cnt.acked.Add(1)
		k++
	}
	a.inflight = cut(a.inflight, 0, k)
	a.trace.Record(tracing.HopArqAck, m.Seq, at, uint32(k), 0)
	if k == 0 {
		a.cnt.dupAcks.Add(1)
		return
	}
	a.rto = a.cfg.RTO
	a.promote()
	a.armTimer()
}

// ReverseStats counts ack back-channel activity.
type ReverseStats struct {
	AcksSent      uint64
	AcksLost      uint64
	AcksDelivered uint64
}

type reverseCounters struct {
	sent, lost, delivered atomic.Uint64
}

// ReverseLink is the host→device ack back-channel, making the RF channel
// bidirectional. It carries MsgAck control messages as ordinary framed v1
// payloads, models loss (LinkConfig.AckLossProb) and the same centred
// latency jitter as the forward path, and keeps per-link delivery FIFO. It
// is driven by the owning device's scheduler: in the simulator the host's
// ack emission happens inside that device's delivery callback, so the whole
// round trip stays on one virtual clock.
type ReverseLink struct {
	cfg   LinkConfig
	sched *sim.Scheduler
	rng   *sim.Rand
	dec   Decoder
	sink  func(payload []byte, at time.Duration)
	cnt   reverseCounters

	lastArrive time.Duration
	// frames, deliver, onPayload and deliverAt mirror Link's allocation-free
	// delivery: acks in flight in reused ring slots, one persistent
	// callback popping the head, and the arrival time of the ack being
	// decoded.
	frames    frameRing
	deliver   func(at time.Duration)
	onPayload func(payload []byte)
	deliverAt time.Duration
}

// Init builds, in place at r, an ack back-channel delivering decoded ack
// payloads to sink (usually ARQ.HandleAck). Loss uses cfg.AckLossProb;
// latency and jitter are shared with the forward configuration. rng may be
// nil for an ideal reverse channel. An owner holds its ReverseLink by
// value; the delivery callbacks capture r, so a ReverseLink must not be
// copied once built.
func (r *ReverseLink) Init(cfg LinkConfig, sched *sim.Scheduler, rng *sim.Rand, sink func(payload []byte, at time.Duration)) error {
	if sched == nil {
		return fmt.Errorf("rf: reverse link: scheduler is required")
	}
	if sink == nil {
		return fmt.Errorf("rf: reverse link: sink is required")
	}
	if cfg.AckLossProb < 0 || cfg.AckLossProb > 1 {
		return fmt.Errorf("rf: reverse link: AckLossProb must be in [0,1]")
	}
	*r = ReverseLink{cfg: cfg, sched: sched, rng: rng, sink: sink}
	r.onPayload = func(p []byte) {
		r.cnt.delivered.Add(1)
		r.sink(p, r.deliverAt)
	}
	r.deliver = func(at time.Duration) {
		r.deliverAt = at
		r.dec.FeedFunc(r.frames.pop(), r.onPayload)
	}
	return nil
}

// Stats returns the back-channel counters.
func (r *ReverseLink) Stats() ReverseStats {
	return ReverseStats{
		AcksSent:      r.cnt.sent.Load(),
		AcksLost:      r.cnt.lost.Load(),
		AcksDelivered: r.cnt.delivered.Load(),
	}
}

// Collect contributes the back-channel counters to a telemetry snapshot.
func (r *ReverseLink) Collect(s *telemetry.Snapshot) {
	st := r.Stats()
	s.AddCounter(telemetry.MetricRFAcksSent, st.AcksSent)
	s.AddCounter(telemetry.MetricRFAcksLost, st.AcksLost)
	s.AddCounter(telemetry.MetricRFAcksDelivered, st.AcksDelivered)
}

// SendAck transmits one cumulative acknowledgement for the given device:
// every frame with sequence number <= cum (wrapping) has been delivered in
// order.
func (r *ReverseLink) SendAck(device uint32, cum uint16) {
	now := r.sched.Clock().Now()
	m := Message{Kind: MsgAck, Device: device, Seq: cum, AtMillis: uint32(now / time.Millisecond)}
	// The payload scratch stays on the stack; the frame goes to a ring slot.
	var pbuf [32]byte
	if _, err := r.frames.encode(m.AppendBinary(pbuf[:0])); err != nil {
		return
	}
	r.cnt.sent.Add(1)

	delay := r.cfg.Latency
	if r.rng != nil && r.cfg.Jitter > 0 {
		delay += time.Duration(r.rng.Uniform(-float64(r.cfg.Jitter), float64(r.cfg.Jitter)))
		if delay < 0 {
			delay = 0
		}
	}
	arrive := now + delay
	if arrive < r.lastArrive {
		arrive = r.lastArrive
	}
	r.lastArrive = arrive

	if r.rng != nil && r.rng.Bool(r.cfg.AckLossProb) {
		r.cnt.lost.Add(1)
		return
	}
	r.frames.push()
	r.sched.At(arrive, r.deliver)
}
