package rf

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/hcilab/distscroll/internal/sim"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

// LinkConfig parameterises the channel model.
type LinkConfig struct {
	// LossProb is the per-frame probability of complete loss.
	LossProb float64
	// CorruptProb is the per-frame probability of a single-byte flip,
	// which the decoder must reject by CRC.
	CorruptProb float64
	// Latency is the base propagation+stack delay.
	Latency time.Duration
	// Jitter is the half-width of the uniform latency jitter: the per-frame
	// delay is Latency + Uniform(-Jitter, +Jitter), clamped to be >= 0, so
	// the mean delay stays Latency.
	Jitter time.Duration
	// BitrateBPS limits throughput; <= 0 means unlimited. The prototype's
	// Smart-Its RF module runs at 19.2 kbit/s class rates.
	BitrateBPS int
	// BurstLossProb is the per-frame probability of entering a loss burst:
	// the frame and the next BurstLossLen-1 frames are dropped in a row,
	// modelling shadowing and interference hits rather than independent
	// per-frame noise. Zero disables burst faults.
	BurstLossProb float64
	// BurstLossLen is the number of consecutive frames a burst drops.
	// Values < 1 default to 4 when bursts are enabled.
	BurstLossLen int
	// AckLossProb is the loss probability of the host→device ack
	// back-channel (ReverseLink). It only matters for reliable (ARQ)
	// assemblies; the forward data path ignores it.
	AckLossProb float64
}

// DefaultLinkConfig is a clean short-range indoor link.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		LossProb:    0.002,
		CorruptProb: 0.002,
		Latency:     4 * time.Millisecond,
		Jitter:      2 * time.Millisecond,
		BitrateBPS:  19_200,
	}
}

// LinkStats counts channel activity.
type LinkStats struct {
	Sent      uint64
	Lost      uint64
	Corrupted uint64
	Delivered uint64
	// SentV0 and SentV1 split Sent by payload wire-format version (legacy
	// device-less v0 vs the fleet's device-tagged v1).
	SentV0 uint64
	SentV1 uint64
	// BurstLost is the subset of Lost dropped by burst faults.
	BurstLost uint64
}

// linkCounters are the Link's internal counters. They are atomic so a
// telemetry reporter may snapshot a link mid-run from another goroutine
// while the owning device goroutine keeps transmitting.
type linkCounters struct {
	sent, lost, corrupted, delivered atomic.Uint64
	sentV0, sentV1, burstLost        atomic.Uint64
}

func (c *linkCounters) stats() LinkStats {
	return LinkStats{
		Sent:      c.sent.Load(),
		Lost:      c.lost.Load(),
		Corrupted: c.corrupted.Load(),
		Delivered: c.delivered.Load(),
		SentV0:    c.sentV0.Load(),
		SentV1:    c.sentV1.Load(),
		BurstLost: c.burstLost.Load(),
	}
}

// Link is a unidirectional device→host channel that delivers framed
// payloads to a Decoder after a modelled delay, loss and corruption.
// Delivery is driven by the shared scheduler so time is virtual.
type Link struct {
	cfg   LinkConfig
	sched *sim.Scheduler
	rng   *sim.Rand
	dec   *Decoder
	sink  func(payload []byte, at time.Duration)
	cnt   linkCounters
	trace *tracing.Recorder
	// frames holds the encoded frames in flight, oldest first. deliver
	// and onPayload are the persistent delivery and decoder callbacks
	// (built once so a frame allocates no closure); deliverAt carries the
	// arrival time of the frame currently being decoded. All are only
	// touched from Send and scheduler callbacks, which run serially on the
	// owning device.
	frames    frameRing
	deliver   func(at time.Duration)
	onPayload func(payload []byte)
	deliverAt time.Duration
	// busyUntil models the half-duplex serialisation of the radio.
	busyUntil time.Duration
	// lastArrive makes per-link delivery times monotonic: jitter may draw a
	// smaller delay for a later frame, but frames on one link must not
	// overtake each other (Session documents "frames for one device must
	// arrive in order").
	lastArrive time.Duration
	// burstLeft counts the remaining frames of an active loss burst.
	burstLeft int
}

// NewLink returns a link delivering decoded payloads to sink. rng may be
// nil for an ideal channel.
//
// Delivered payload slices alias the link's decoder buffer and are only
// valid for the duration of the sink call: a sink that retains payload
// bytes must copy them. Every in-tree sink (Hub.Handle, Session.Handle,
// ARQ.HandleAck) decodes synchronously and retains nothing.
func NewLink(cfg LinkConfig, sched *sim.Scheduler, rng *sim.Rand, sink func(payload []byte, at time.Duration)) (*Link, error) {
	if sched == nil {
		return nil, fmt.Errorf("rf: scheduler is required")
	}
	if sink == nil {
		return nil, fmt.Errorf("rf: sink is required")
	}
	if cfg.LossProb < 0 || cfg.LossProb > 1 || cfg.CorruptProb < 0 || cfg.CorruptProb > 1 ||
		cfg.BurstLossProb < 0 || cfg.BurstLossProb > 1 || cfg.AckLossProb < 0 || cfg.AckLossProb > 1 {
		return nil, fmt.Errorf("rf: probabilities must be in [0,1]")
	}
	if cfg.BurstLossProb > 0 && cfg.BurstLossLen < 1 {
		cfg.BurstLossLen = 4
	}
	l := &Link{cfg: cfg, sched: sched, rng: rng, dec: NewDecoder(), sink: sink}
	l.onPayload = func(p []byte) {
		l.cnt.delivered.Add(1)
		if l.trace != nil {
			if seq, ok := PayloadSeq(p); ok {
				l.trace.Record(tracing.HopLinkDeliver, seq, l.deliverAt, 0, 0)
			}
		}
		l.sink(p, l.deliverAt)
	}
	l.deliver = func(at time.Duration) {
		// The zero-copy decode path: payloads handed to the sink alias the
		// decoder scratch, valid only inside the callback (see NewLink).
		l.deliverAt = at
		l.dec.FeedFunc(l.frames.pop(), l.onPayload)
	}
	return l, nil
}

// Stats returns the channel statistics.
func (l *Link) Stats() LinkStats { return l.cnt.stats() }

// SetTracer attaches a per-device flight recorder: the link records
// link.deliver for every CRC-clean frame handed to the sink and link.drop
// for frames the channel loses. A nil recorder disables tracing.
func (l *Link) SetTracer(r *tracing.Recorder) { l.trace = r }

// Collect contributes the link counters to a telemetry snapshot. Many
// links (one per fleet device) collect into the same fleet-wide names.
func (l *Link) Collect(s *telemetry.Snapshot) {
	st := l.Stats()
	s.AddCounter(telemetry.MetricRFSent, st.Sent)
	s.AddCounter(telemetry.MetricRFSentV0, st.SentV0)
	s.AddCounter(telemetry.MetricRFSentV1, st.SentV1)
	s.AddCounter(telemetry.MetricRFLost, st.Lost)
	s.AddCounter(telemetry.MetricRFBurstLost, st.BurstLost)
	s.AddCounter(telemetry.MetricRFCorrupted, st.Corrupted)
	s.AddCounter(telemetry.MetricRFDelivered, st.Delivered)
}

// DecoderStats returns the receive-side decoder statistics.
func (l *Link) DecoderStats() DecoderStats { return l.dec.Stats() }

// Send frames and transmits a payload, classifying its wire-format version
// with VersionOf. Returns the time at which delivery (or silent loss)
// completes.
func (l *Link) Send(payload []byte) (time.Duration, error) {
	return l.SendTagged(payload, VersionOf(payload))
}

// SendTagged frames and transmits a payload whose wire-format version the
// caller knows. Senders that marshalled the payload themselves (the
// firmware, the ARQ layer) pass the version explicitly so the sent-by-
// version split cannot be fooled by payload bytes that merely look like a
// version magic.
func (l *Link) SendTagged(payload []byte, ver PayloadVersion) (time.Duration, error) {
	frame, err := l.frames.encode(payload)
	if err != nil {
		return 0, fmt.Errorf("rf: send: %w", err)
	}
	l.cnt.sent.Add(1)
	if ver == PayloadV1 {
		l.cnt.sentV1.Add(1)
	} else {
		l.cnt.sentV0.Add(1)
	}

	now := l.sched.Clock().Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	txTime := time.Duration(0)
	if l.cfg.BitrateBPS > 0 {
		bits := float64(len(frame) * 10) // 8N1 framing on the air interface
		txTime = time.Duration(bits / float64(l.cfg.BitrateBPS) * float64(time.Second))
	}
	l.busyUntil = start + txTime

	// Jitter is centred on Latency (half-width cfg.Jitter) so the mean
	// delay is exactly cfg.Latency; the draw happens for lost frames too so
	// the random stream does not depend on the loss outcome.
	delay := l.cfg.Latency
	if l.rng != nil && l.cfg.Jitter > 0 {
		delay += time.Duration(l.rng.Uniform(-float64(l.cfg.Jitter), float64(l.cfg.Jitter)))
		if delay < 0 {
			delay = 0
		}
	}
	arrive := l.busyUntil + delay
	// A later frame that drew a smaller jitter must not overtake an earlier
	// one: clamp to the previous frame's arrival so per-link delivery is
	// FIFO, as Session's in-order contract requires.
	if arrive < l.lastArrive {
		arrive = l.lastArrive
	}
	l.lastArrive = arrive

	if lost, burst := l.drawLoss(); lost {
		if l.trace != nil {
			if seq, ok := PayloadSeq(payload); ok {
				var b uint32
				if burst {
					b = 1
				}
				l.trace.Record(tracing.HopLinkDrop, seq, arrive, b, 0)
			}
		}
		return arrive, nil
	}
	if l.rng != nil && l.rng.Bool(l.cfg.CorruptProb) && len(frame) > 3 {
		// The frame sits in this link's own ring slot until its delivery,
		// so the flip happens in place.
		l.cnt.corrupted.Add(1)
		i := 3 + l.rng.Intn(len(frame)-3)
		frame[i] ^= 1 << uint(l.rng.Intn(8))
	}

	l.frames.push()
	l.sched.At(arrive, l.deliver)
	return arrive, nil
}

// drawLoss applies the loss model to one frame: an active burst swallows it
// unconditionally, otherwise a fresh burst may start, otherwise the
// independent per-frame loss probability applies. The second return
// distinguishes burst loss for the trace.
func (l *Link) drawLoss() (lost, burst bool) {
	if l.rng == nil {
		return false, false
	}
	if l.burstLeft > 0 {
		l.burstLeft--
		l.cnt.lost.Add(1)
		l.cnt.burstLost.Add(1)
		return true, true
	}
	if l.cfg.BurstLossProb > 0 && l.rng.Bool(l.cfg.BurstLossProb) {
		l.burstLeft = l.cfg.BurstLossLen - 1
		l.cnt.lost.Add(1)
		l.cnt.burstLost.Add(1)
		return true, true
	}
	if l.rng.Bool(l.cfg.LossProb) {
		l.cnt.lost.Add(1)
		return true, false
	}
	return false, false
}

// frameRing is a link's FIFO of encoded frames in flight, held in byte
// slots that are reused once their frame has been delivered. Arrivals on
// one link never decrease and the scheduler fires equal-time events in
// schedule order, so a link's deliveries fire in send order and the head
// slot is always the frame being delivered: one persistent callback that
// pops the head replaces a closure per frame.
type frameRing struct {
	slots   [][]byte
	head, n int
}

// encode frames payload into the tail slot without queueing it, so a frame
// the channel loses costs no slot; push queues it.
func (r *frameRing) encode(payload []byte) ([]byte, error) {
	if r.n == len(r.slots) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.slots) {
		i -= len(r.slots)
	}
	f := r.slots[i][:0]
	if n := len(payload) + Overhead; cap(f) < n && n <= maxFrame {
		f = make([]byte, 0, n)
	}
	f, err := AppendEncode(f, payload)
	r.slots[i] = f
	return f, err
}

// push queues the frame encode just wrote.
func (r *frameRing) push() { r.n++ }

// pop dequeues the oldest frame. The slot is rewritten by a later encode,
// so the frame must be consumed before the next send on the link;
// Decoder.FeedFunc copies its input before it calls back.
func (r *frameRing) pop() []byte {
	f := r.slots[r.head]
	r.head++
	if r.head == len(r.slots) {
		r.head = 0
	}
	r.n--
	return f
}

// grow doubles a full ring, moving its frames to the front in order.
func (r *frameRing) grow() {
	s := make([][]byte, max(4, 2*len(r.slots)))
	k := copy(s, r.slots[r.head:])
	copy(s[k:], r.slots[:r.head])
	r.slots, r.head = s, 0
}
