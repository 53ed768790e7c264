package hubnet

import (
	"bufio"
	"net"
	"sync"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/rf"
)

// Conn is the client side of a hubnet link: one TCP socket carrying
// framed telemetry payloads from any number of simulated devices. Writes
// are mutex-serialised, so device goroutines share a connection safely;
// frames from a single device stay in order because each device's sends
// are already ordered on its own goroutine and TCP preserves stream
// order.
type Conn struct {
	c net.Conn

	mu   sync.Mutex
	w    *bufio.Writer
	enc  []byte // framing scratch, reused across sends
	sent uint64
	err  error // first write error; latched, the stream is dead after one
}

// Dial connects to a hubnet server.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Conn{c: c, w: bufio.NewWriterSize(c, readBuf)}, nil
}

// write frames one payload into the connection's scratch and hands it to
// the buffered writer, optionally flushing. A framing error (oversized
// payload) is the caller's fault and leaves the stream usable; a write
// error is latched — a byte stream that dropped bytes mid-frame cannot
// carry further frames coherently.
func (c *Conn) write(payload []byte, flush bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	frame, err := rf.AppendEncode(c.enc[:0], payload)
	if err != nil {
		return err
	}
	c.enc = frame[:0]
	if _, err := c.w.Write(frame); err != nil {
		c.err = err
		return err
	}
	c.sent++
	if flush {
		if err := c.w.Flush(); err != nil {
			c.err = err
			return err
		}
	}
	return nil
}

// Forward frames one payload and flushes it to the socket — the uplink
// for interactive fleet devices, where each frame should reach the hub
// as it is emitted.
func (c *Conn) Forward(payload []byte) error { return c.write(payload, true) }

// Send frames one payload into the write buffer without flushing — the
// bulk uplink for scale runs, paired with Flush once per sweep.
func (c *Conn) Send(payload []byte) error { return c.write(payload, false) }

// SendEncoded hands n already-framed payloads (encoded with
// rf.AppendEncode into one contiguous buffer) to the write buffer
// without flushing. It is the amortised bulk uplink: the caller frames
// outside the lock, so the critical section is one memcpy into the
// bufio.Writer instead of n CRC passes — senders sharing a connection
// stop serialising on each other's encode work.
func (c *Conn) SendEncoded(frames []byte, n int) error {
	if len(frames) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if _, err := c.w.Write(frames); err != nil {
		c.err = err
		return err
	}
	c.sent += uint64(n)
	return nil
}

// Flush drains the write buffer to the socket.
func (c *Conn) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if err := c.w.Flush(); err != nil {
		c.err = err
		return err
	}
	return nil
}

// Err returns the latched stream error, if any.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Stats reports the connection's channel accounting in link terms: TCP
// neither loses nor corrupts, so every framed payload that entered the
// stream counts as sent and delivered.
func (c *Conn) Stats() rf.LinkStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return rf.LinkStats{Sent: c.sent, Delivered: c.sent, SentV1: c.sent}
}

// Close flushes and closes the socket.
func (c *Conn) Close() error {
	c.mu.Lock()
	flushErr := c.w.Flush()
	c.mu.Unlock()
	if err := c.c.Close(); err != nil {
		return err
	}
	return flushErr
}

// Remote is a fleet hub backend that forwards every delivered frame over
// a client connection to an out-of-process gateway. Host-side accounting
// (sessions, events, sequence audit) lives in the server; Session hands
// out local shadow sessions so fleet wiring that registers handlers or
// tracers has a target, and Lookup reports not-found — per-device host
// stats must be read from the server's gateway.
type Remote struct {
	conn   *Conn
	shadow *core.Hub
}

// NewRemote wraps a dialled connection as a fleet hub backend.
func NewRemote(conn *Conn) *Remote {
	return &Remote{conn: conn, shadow: core.NewHub(false)}
}

// Handle forwards one payload to the server. The virtual arrival time
// cannot cross the wire (the frame format predates the network path), so
// the server stamps frames on its own ingest clock.
func (r *Remote) Handle(payload []byte, at time.Duration) { _ = r.conn.Forward(payload) }

// Session returns the local shadow session for a device id.
func (r *Remote) Session(id uint32) *core.Session { return r.shadow.Session(id) }

// Lookup always reports not-found: receive accounting lives in the server
// process.
func (r *Remote) Lookup(id uint32) (*core.Session, bool) { return nil, false }

// Err surfaces the connection's latched stream error.
func (r *Remote) Err() error { return r.conn.Err() }

// FrameSender adapts a connection to the scale path's frame emission
// hook (core.FrameEmitter): each emitted slab frame is marshalled as a
// v1 scroll message and framed into the sender's own accumulation
// buffer — entirely outside the connection mutex — then handed to the
// connection in multi-frame runs via SendEncoded, so the lock is held
// for a memcpy, not per-frame encode work. One FrameSender per worker,
// on the worker's own connection — emission is single-goroutine, so the
// scratch buffers need no lock.
type FrameSender struct {
	conn *Conn
	base uint32
	pbuf []byte // one message's marshal scratch
	wbuf []byte // framed bytes accumulated since the last push
	wn   int    // frames accumulated in wbuf
	err  error
}

// senderFlushBytes is the accumulation threshold: push framed bytes to
// the connection once ~32 KiB (about 1300 frames) have built up, keeping
// the buffer L1/L2-resident while amortising the lock to ~nothing.
const senderFlushBytes = 32 << 10

// NewFrameSender returns a sender mapping slab slot s to wire device id
// idBase + s.
func NewFrameSender(conn *Conn, idBase uint32) *FrameSender {
	return &FrameSender{conn: conn, base: idBase}
}

// Emit marshals and frames one message into the accumulation buffer,
// pushing to the connection when the threshold is reached. After the
// first stream error emission goes dark rather than panicking the tick
// loop; the error surfaces from Flush.
func (fs *FrameSender) Emit(slot int, seq uint16, island int16, atMillis uint32) {
	if fs.err != nil {
		return
	}
	m := rf.Message{
		Kind:     rf.MsgScroll,
		Device:   fs.base + uint32(slot),
		Seq:      seq,
		AtMillis: atMillis,
		Index:    island,
		Island:   island,
	}
	fs.pbuf = m.AppendBinary(fs.pbuf[:0])
	wbuf, err := rf.AppendEncode(fs.wbuf, fs.pbuf)
	if err != nil {
		fs.err = err
		return
	}
	fs.wbuf = wbuf
	fs.wn++
	if len(fs.wbuf) >= senderFlushBytes {
		fs.push()
	}
}

// push hands the accumulated framed bytes to the connection.
func (fs *FrameSender) push() {
	if fs.err != nil || fs.wn == 0 {
		return
	}
	fs.err = fs.conn.SendEncoded(fs.wbuf, fs.wn)
	fs.wbuf = fs.wbuf[:0]
	fs.wn = 0
}

// Flush pushes any accumulated frames, drains the connection's write
// buffer to the socket, and returns the first stream error, if any.
func (fs *FrameSender) Flush() error {
	fs.push()
	if fs.err != nil {
		return fs.err
	}
	fs.err = fs.conn.Flush()
	return fs.err
}

// Err returns the sender's first error.
func (fs *FrameSender) Err() error { return fs.err }
