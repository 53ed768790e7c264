package hubnet

import (
	"sync"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/rf"
)

// Loopback is the deterministic in-process ingest mode: device sinks
// call Handle directly, and the payload still traverses the full wire
// path — framed with AppendEncode, fed through an incremental Decoder,
// message-decoded, then routed to its shard — synchronously on the
// calling device's goroutine at the device's own virtual arrival time.
// No socket, no extra goroutines, no wall clock: a seeded fleet run
// through a Loopback is byte-identical to one against a plain in-process
// hub, which is what lets tests pin the network path's transparency.
//
// Loopback implements the fleet hub-backend contract (Handle, Session,
// Lookup).
type Loopback struct {
	gw   *Gateway
	devs sync.Map // uint32 → *loopIngest
}

// loopIngest is one device's private stream: its encode scratch and the
// direct gateway's per-stream decode. Frames from a single device arrive
// in order on that device's goroutine, so the state needs no lock.
type loopIngest struct {
	enc []byte
	in  *Ingest
}

// NewLoopback builds a gateway and wires the loopback ingest onto it.
// The ingest pipeline is forced off regardless of cfg.Pipeline: loopback's
// whole point is that a frame is consumed synchronously at the device's
// own virtual arrival time, and a ring hand-off to a worker goroutine
// would trade that byte-identity for nothing (there is no socket and no
// cross-connection contention to hide).
func NewLoopback(cfg Config) *Loopback {
	cfg.Pipeline = false
	return &Loopback{gw: NewGateway(cfg)}
}

// Gateway returns the underlying gateway (stats, shard access).
func (l *Loopback) Gateway() *Gateway { return l.gw }

// ingest returns the calling device's stream state, creating it on the
// device's first frame.
func (l *Loopback) ingest(id uint32) *loopIngest {
	if v, ok := l.devs.Load(id); ok {
		return v.(*loopIngest)
	}
	li := &loopIngest{in: l.gw.NewIngest(nil)}
	if v, loaded := l.devs.LoadOrStore(id, li); loaded {
		return v.(*loopIngest)
	}
	return li
}

// Handle is the rf link sink: it frames the payload, runs it through the
// device's stream decoder, and routes the decoded message to its shard —
// all synchronously, so the hub sees the frame at exactly the virtual
// time the link delivered it. Routing state is keyed by the payload's
// best-effort device id; a payload too mangled to classify shares the
// conventional id-0 stream, where its decode failure is counted exactly
// as the in-process hub would have.
func (l *Loopback) Handle(payload []byte, at time.Duration) {
	li := l.ingest(rf.PayloadDevice(payload))
	frame, err := rf.AppendEncode(li.enc[:0], payload)
	if err != nil {
		// Oversized payloads cannot cross the wire at all; account the
		// loss the same way an undecodable payload is accounted.
		l.gw.badFrames.Add(1)
		return
	}
	li.enc = frame[:0]
	l.gw.bytesRead.Add(uint64(len(frame)))
	// Feed stamps and accounts per socket read; a loopback frame carries
	// the device's virtual arrival time and is decoded directly.
	li.in.at = at
	li.in.dec.FeedFunc(frame, li.in.onPayload)
}

// Session returns the session a device id routes to (pre-registration).
func (l *Loopback) Session(id uint32) *core.Session { return l.gw.Session(id) }

// Lookup returns a device's session without creating one.
func (l *Loopback) Lookup(id uint32) (*core.Session, bool) { return l.gw.Lookup(id) }
