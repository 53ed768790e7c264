package hubnet

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"
)

// Server accepts hubnet connections and feeds each one's byte stream
// through its own Ingest into a shared Gateway. Connections carry the RF
// frame format verbatim — the TCP stream is the "wire", the frame CRC
// still guards integrity, and a corrupted or truncated stream resyncs
// exactly as the radio decoder does. One goroutine per connection;
// batched reads through bufio amortise syscalls so a 100k-device scale
// run can funnel its frames through a handful of sockets.
type Server struct {
	gw *Gateway
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// readBuf sizes the per-connection read buffer: large enough to carry
// thousands of 25-byte frames per syscall, small enough that a thousand
// idle connections cost megabytes, not gigabytes.
const readBuf = 64 << 10

// Accept-retry backoff bounds: transient errors (EMFILE, ECONNABORTED)
// back off from 5ms doubling to 1s, resetting after any successful
// accept. A listener under descriptor pressure rides out the spike
// instead of silently killing ingest for every future connection.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

// Read-path pools, shared by all connections across all servers in the
// process: a disconnect/reconnect churn of thousands of devices reuses
// the 64 KiB bufio readers and 32 KiB chunk buffers instead of
// re-allocating ~100 KB per connection.
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readBuf) }}
	chunkPool  = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}
)

// Serve listens on addr (e.g. "127.0.0.1:0") and serves a fresh gateway
// built from cfg until Close.
func Serve(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeListener(ln, cfg), nil
}

// ServeListener serves a fresh gateway on an already-bound listener —
// the injection point for tests that wrap a listener in fault models
// (transient Accept errors) the kernel won't produce on demand.
//
// A served gateway keeps every number on one clock. Frames are stamped
// on cfg.Now (default: wall time since the server started), which shares
// nothing with the devices' virtual time, so its sessions record no
// hub_e2e_latency_ms; a pipelined, instrumented gateway records
// net_ring_wait_ms on that same clock instead.
func ServeListener(ln net.Listener, cfg Config) *Server {
	now := cfg.Now
	if now == nil {
		start := time.Now()
		now = func() time.Duration { return time.Since(start) }
	}
	s := &Server{
		gw:    newGateway(cfg, now),
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the bound listen address (resolves ":0" ports).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Gateway returns the server's gateway (stats, sessions, telemetry).
func (s *Server) Gateway() *Gateway { return s.gw }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := acceptBackoffMin
	for {
		c, err := s.ln.Accept()
		if err != nil {
			// Closed listener means shutdown. Anything else is treated as
			// transient — an fd-exhausted or connection-aborted accept must
			// not kill the listener for every future device — and retried
			// with capped exponential backoff.
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			s.gw.acceptRetries.Add(1)
			time.Sleep(backoff)
			if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		backoff = acceptBackoffMin
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.gw.connsTotal.Add(1)
		s.gw.connsOpen.Add(1)
		go s.serveConn(c)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// serveConn pumps one connection: batched reads, incremental decode,
// shard routing (direct or via the shard rings per the gateway config).
// The stream needs no length-prefix protocol of its own — the frame
// format is self-delimiting and self-healing.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.gw.connsOpen.Add(-1)
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	in := s.gw.NewIngest(s.gw.now)
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(c)
	defer readerPool.Put(br)
	bufp := chunkPool.Get().(*[]byte)
	buf := *bufp
	defer chunkPool.Put(bufp)
	for {
		n, err := br.Read(buf)
		if n > 0 {
			in.Feed(buf[:n])
		}
		if err != nil {
			return
		}
	}
}

// Close stops accepting, closes every open connection, waits for the
// per-connection goroutines to drain, and then stops the gateway's
// ingest pipeline (the shard workers drain their rings before exiting,
// so stats read after Close are complete). Safe to call twice.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	s.gw.Close()
	return err
}
