package rf

import (
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/sim"
)

// The zero-allocation contracts of the frame pipeline, enforced as tests so
// a regression fails CI rather than silently costing a fleet host one
// garbage-collected allocation per frame. testing.AllocsPerRun reports the
// average allocations of steady-state calls; the scratch buffers warm up
// before measurement.

func testMessage() Message {
	return Message{
		Kind:      MsgScroll,
		Device:    7,
		Seq:       42,
		AtMillis:  1234,
		Index:     5,
		VoltageMV: 1800,
		Island:    2,
		Button:    1,
		Context:   3,
	}
}

func TestAppendBinaryZeroAlloc(t *testing.T) {
	m := testMessage()
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(1000, func() {
		buf = m.AppendBinary(buf[:0])
	}); n != 0 {
		t.Fatalf("Message.AppendBinary: %v allocs/op, want 0", n)
	}
}

func TestAppendEncodeZeroAlloc(t *testing.T) {
	payload := testMessage().AppendBinary(nil)
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(1000, func() {
		var err error
		buf, err = AppendEncode(buf[:0], payload)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendEncode: %v allocs/op, want 0", n)
	}
}

func TestFeedFuncZeroAlloc(t *testing.T) {
	frame, err := Encode(testMessage().AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder()
	got := 0
	fn := func(p []byte) { got++ }
	// Warm the decoder's internal buffer before measuring.
	d.FeedFunc(frame, fn)
	got = 0
	if n := testing.AllocsPerRun(1000, func() {
		d.FeedFunc(frame, fn)
	}); n != 0 {
		t.Fatalf("Decoder.FeedFunc: %v allocs/op, want 0", n)
	}
	if got != 1000+1 {
		t.Fatalf("decoded %d frames, want %d", got, 1001)
	}
}

// TestEncodeAppendEncodeEquivalent pins the append-style encoder to the
// allocating one byte for byte, including the error path leaving dst
// untouched.
func TestEncodeAppendEncodeEquivalent(t *testing.T) {
	payloads := [][]byte{
		{0x01},
		testMessage().AppendBinary(nil),
		make([]byte, MaxPayload),
	}
	for _, p := range payloads {
		want, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendEncode([]byte{0xEE}, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1+len(want) || got[0] != 0xEE || string(got[1:]) != string(want) {
			t.Fatalf("AppendEncode mismatch for %d-byte payload", len(p))
		}
	}
	dst := []byte{1, 2, 3}
	out, err := AppendEncode(dst, make([]byte, MaxPayload+1))
	if err == nil {
		t.Fatal("AppendEncode accepted oversize payload")
	}
	if len(out) != 3 {
		t.Fatalf("error path must leave dst unchanged, got len %d", len(out))
	}
}

// drain runs every queued event.
func drain(s *sim.Scheduler) {
	for s.Step() {
	}
}

// TestLinkSendDeliverZeroAlloc pins the forward data path: once the link's
// frame ring and decoder scratch have warmed up, SendTagged and the
// scheduled delivery into the sink allocate nothing, over a channel that
// jitters, loses and corrupts frames.
func TestLinkSendDeliverZeroAlloc(t *testing.T) {
	sched := sim.NewScheduler(sim.NewClock(0))
	cfg := DefaultLinkConfig()
	cfg.LossProb, cfg.CorruptProb = 0.1, 0.1
	delivered := 0
	l, err := NewLink(cfg, sched, sim.NewRand(3), func([]byte, time.Duration) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	m := testMessage()
	buf := make([]byte, 0, 64)
	send := func() {
		m.Seq++
		buf = m.AppendBinary(buf[:0])
		for i := 0; i < 4; i++ { // a burst keeps several frames in flight
			if _, err := l.SendTagged(buf, PayloadV1); err != nil {
				t.Fatal(err)
			}
		}
		drain(sched)
	}
	for i := 0; i < 100; i++ {
		send()
	}
	if n := testing.AllocsPerRun(1000, send); n != 0 {
		t.Fatalf("Link.SendTagged + delivery: %v allocs/op, want 0", n)
	}
	st := l.Stats()
	if delivered == 0 || st.Lost == 0 || st.Corrupted == 0 || st.Sent != st.Delivered+st.Lost+st.Corrupted {
		t.Fatalf("channel did not exercise delivery, loss and corruption: %+v", st)
	}
}

// TestReverseLinkSendAckZeroAlloc pins the ack back-channel: SendAck and
// the scheduled delivery of the ack allocate nothing after warm-up.
func TestReverseLinkSendAckZeroAlloc(t *testing.T) {
	sched := sim.NewScheduler(sim.NewClock(0))
	cfg := DefaultLinkConfig()
	cfg.AckLossProb = 0.1
	var last uint16
	r, err := NewReverseLink(cfg, sched, sim.NewRand(4), func(p []byte, _ time.Duration) {
		var m Message
		if m.Decode(p) {
			last = m.Seq
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cum := uint16(0)
	ack := func() {
		for i := 0; i < 3; i++ {
			cum++
			r.SendAck(9, cum)
		}
		drain(sched)
	}
	for i := 0; i < 100; i++ {
		ack()
	}
	if n := testing.AllocsPerRun(1000, ack); n != 0 {
		t.Fatalf("ReverseLink.SendAck + delivery: %v allocs/op, want 0", n)
	}
	if st := r.Stats(); st.AcksDelivered == 0 || st.AcksLost == 0 || last == 0 {
		t.Fatalf("back-channel did not exercise delivery and loss: %+v", st)
	}
}

// TestARQCycleZeroAlloc pins one reliable send cycle of the device object
// path: ARQ send over a lossy Link, in-order receive, ack over the lossy
// ReverseLink, window slide and the retransmit timer when a frame or an ack
// is lost. After warm-up (frame free list, timer heap, rings, decoders) the
// cycle allocates nothing.
func TestARQCycleZeroAlloc(t *testing.T) {
	sched := sim.NewScheduler(sim.NewClock(0))
	cfg := DefaultLinkConfig()
	cfg.LossProb, cfg.AckLossProb = 0.2, 0.1
	rng := sim.NewRand(6)
	var arq *ARQ
	rev, err := NewReverseLink(cfg, sched, rng.Split(), func(p []byte, at time.Duration) { arq.HandleAck(p, at) })
	if err != nil {
		t.Fatal(err)
	}
	var await uint16
	link, err := NewLink(cfg, sched, rng.Split(), func(p []byte, _ time.Duration) {
		var m Message
		if !m.Decode(p) {
			return
		}
		if m.Seq == await {
			await++
		}
		rev.SendAck(m.Device, await-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if arq, err = NewARQ(ARQConfig{}, sched, rng.Split(), link); err != nil {
		t.Fatal(err)
	}
	m := testMessage()
	m.Seq = 0
	buf := make([]byte, 0, 64)
	cycle := func() {
		for i := 0; i < 3; i++ {
			buf = m.AppendBinary(buf[:0])
			m.Seq++
			if _, err := arq.SendTagged(buf, PayloadV1); err != nil {
				t.Fatal(err)
			}
		}
		for arq.Outstanding() > 0 && sched.Step() {
		}
	}
	for i := 0; i < 300; i++ {
		cycle()
	}
	before := arq.Stats()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("ARQ send/ack/retransmit cycle: %v allocs/op, want 0", n)
	}
	st := arq.Stats()
	if st.Timeouts == before.Timeouts || st.Retransmits == before.Retransmits || st.Acked == before.Acked {
		t.Fatalf("measured cycles did not exercise acks and retransmit timers: %+v -> %+v", before, st)
	}
	if arq.Outstanding() != 0 || await != m.Seq {
		t.Fatalf("outstanding %d, receiver awaits %d, sender at %d", arq.Outstanding(), await, m.Seq)
	}
}
