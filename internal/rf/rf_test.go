package rf

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"github.com/hcilab/distscroll/internal/sim"
)

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("CRC16 = %#04x, want 0x29B1", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	dec := NewDecoder()
	f := func(payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		frame, err := Encode(payload)
		if err != nil {
			return false
		}
		got := dec.Feed(frame)
		if len(got) != 1 || len(got[0]) != len(payload) {
			return false
		}
		for i := range payload {
			if got[0][i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeTooLarge(t *testing.T) {
	if _, err := Encode(make([]byte, MaxPayload+1)); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("oversized payload: %v", err)
	}
}

func TestDecoderResyncOnGarbage(t *testing.T) {
	dec := NewDecoder()
	frame, err := Encode([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	stream := append([]byte{0x01, 0x02, 0xAA, 0x03}, frame...) // noise incl. a lone sync byte
	got := dec.Feed(stream)
	if len(got) != 1 || string(got[0]) != "hello" {
		t.Fatalf("decoded %v", got)
	}
	if dec.Stats().Resyncs == 0 {
		t.Fatal("resync bytes not counted")
	}
}

func TestDecoderRejectsCorruptFrame(t *testing.T) {
	dec := NewDecoder()
	frame, err := Encode([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	frame[5] ^= 0xFF
	if got := dec.Feed(frame); len(got) != 0 {
		t.Fatalf("corrupt frame decoded: %v", got)
	}
	if dec.Stats().CRCErrors != 1 {
		t.Fatalf("crc errors = %d", dec.Stats().CRCErrors)
	}
	// The decoder must recover for the next good frame.
	good, err := Encode([]byte("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Feed(good); len(got) != 1 || string(got[0]) != "ok" {
		t.Fatalf("decoder stuck after corruption: %v", got)
	}
}

func TestDecoderHandlesFragmentation(t *testing.T) {
	dec := NewDecoder()
	frame, err := Encode([]byte("fragmented payload"))
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	for i := range frame {
		got = append(got, dec.Feed(frame[i:i+1])...)
	}
	if len(got) != 1 || string(got[0]) != "fragmented payload" {
		t.Fatalf("fragmented decode: %v", got)
	}
}

func TestDecoderBackToBackFrames(t *testing.T) {
	dec := NewDecoder()
	var stream []byte
	for _, s := range []string{"one", "two", "three"} {
		frame, err := Encode([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame...)
	}
	got := dec.Feed(stream)
	if len(got) != 3 || string(got[2]) != "three" {
		t.Fatalf("batch decode: %v", got)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	f := func(kind byte, seq uint16, at uint32, idx int16, mv uint16, isle int16, btn, ctx byte) bool {
		m := Message{
			Kind: MsgKind(kind), Seq: seq, AtMillis: at,
			Index: idx, VoltageMV: mv, Island: isle, Button: btn, Context: ctx,
		}
		data, err := m.MarshalBinary()
		if err != nil {
			return false
		}
		var back Message
		if err := back.UnmarshalBinary(data); err != nil {
			return false
		}
		return back == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageUnmarshalShort(t *testing.T) {
	var m Message
	if err := m.UnmarshalBinary([]byte{1, 2}); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("short unmarshal: %v", err)
	}
}

func TestMsgKindString(t *testing.T) {
	for _, k := range []MsgKind{MsgScroll, MsgSelect, MsgLevel, MsgState, MsgHeartbeat, MsgKind(42)} {
		if k.String() == "" {
			t.Fatalf("empty name for %d", k)
		}
	}
}

func newTestLink(t *testing.T, cfg LinkConfig, rng *sim.Rand) (*Link, *sim.Scheduler, *[][]byte) {
	t.Helper()
	sched := sim.NewScheduler(sim.NewClock(0))
	var rx [][]byte
	link, err := NewLink(cfg, sched, rng, func(p []byte, _ time.Duration) {
		rx = append(rx, append([]byte(nil), p...))
	})
	if err != nil {
		t.Fatal(err)
	}
	return link, sched, &rx
}

func TestLinkDeliversInOrder(t *testing.T) {
	cfg := LinkConfig{Latency: 5 * time.Millisecond, BitrateBPS: 19200}
	link, sched, rx := newTestLink(t, cfg, nil)
	for _, s := range []string{"a", "bb", "ccc"} {
		if _, err := link.Send([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(*rx) != 3 || string((*rx)[0]) != "a" || string((*rx)[2]) != "ccc" {
		t.Fatalf("rx = %v", *rx)
	}
	st := link.Stats()
	if st.Sent != 3 || st.Delivered != 3 || st.Lost != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLinkLatencyRespected(t *testing.T) {
	cfg := LinkConfig{Latency: 50 * time.Millisecond}
	sched := sim.NewScheduler(sim.NewClock(0))
	var arrival time.Duration
	link, err := NewLink(cfg, sched, nil, func(_ []byte, at time.Duration) { arrival = at })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if arrival < 50*time.Millisecond {
		t.Fatalf("arrival %v before latency", arrival)
	}
}

func TestLinkLossRate(t *testing.T) {
	cfg := LinkConfig{LossProb: 0.5}
	link, sched, rx := newTestLink(t, cfg, sim.NewRand(1))
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := link.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	got := float64(len(*rx)) / n
	if got < 0.45 || got > 0.55 {
		t.Fatalf("delivery rate %.3f, want ~0.5", got)
	}
	st := link.Stats()
	if st.Lost+st.Delivered+st.Corrupted < n-10 {
		t.Fatalf("accounting hole: %+v", st)
	}
}

func TestLinkCorruptionDroppedByCRC(t *testing.T) {
	cfg := LinkConfig{CorruptProb: 1}
	link, sched, rx := newTestLink(t, cfg, sim.NewRand(2))
	for i := 0; i < 50; i++ {
		if _, err := link.Send([]byte("abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(*rx) != 0 {
		t.Fatalf("corrupt frames delivered: %d", len(*rx))
	}
	if link.DecoderStats().CRCErrors == 0 {
		t.Fatal("no CRC errors recorded")
	}
}

func TestLinkBitrateSerialises(t *testing.T) {
	// At 1000 bps a ~12-byte frame takes ~120 ms on air; two frames must
	// not arrive together.
	cfg := LinkConfig{BitrateBPS: 1000}
	sched := sim.NewScheduler(sim.NewClock(0))
	var arrivals []time.Duration
	link, err := NewLink(cfg, sched, nil, func(_ []byte, at time.Duration) {
		arrivals = append(arrivals, at)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.Send([]byte("0123456")); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Send([]byte("0123456")); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals: %v", arrivals)
	}
	gap := arrivals[1] - arrivals[0]
	if gap < 100*time.Millisecond {
		t.Fatalf("frames not serialised: gap %v", gap)
	}
}

func TestLinkValidation(t *testing.T) {
	sched := sim.NewScheduler(sim.NewClock(0))
	sink := func([]byte, time.Duration) {}
	if _, err := NewLink(LinkConfig{}, nil, nil, sink); err == nil {
		t.Fatal("want scheduler error")
	}
	if _, err := NewLink(LinkConfig{}, sched, nil, nil); err == nil {
		t.Fatal("want sink error")
	}
	if _, err := NewLink(LinkConfig{LossProb: 2}, sched, nil, sink); err == nil {
		t.Fatal("want probability error")
	}
}
