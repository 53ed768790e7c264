package main

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/hubnet"
	"github.com/hcilab/distscroll/internal/rf"
)

// TestServeConnectFlagValidation pins the rejection of networked-hub flag
// values and combinations: serve runs no simulation, load and -connect
// need a server address, and the simulation shaping flags cannot cross
// the process boundary. A flag of another command is not defined in this
// one's flag set.
func TestServeConnectFlagValidation(t *testing.T) {
	const undefined = "flag provided but not defined: "
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"serve", "-listen", "127.0.0.1:0", "-connect", "127.0.0.1:9"}, undefined + "-connect"},
		{[]string{"fleet", "-devices", "4", "-listen", "127.0.0.1:0"}, undefined + "-listen"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-devices", "100"}, undefined + "-devices"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-run", "F3"}, undefined + "-run"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-o", "report.txt"}, undefined + "-o"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-loss", "0.1"}, undefined + "-loss"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-reliable"}, undefined + "-reliable"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-workers", "4"}, undefined + "-workers"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-metrics"}, undefined + "-metrics"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-shards", "0"}, "-shards must be at least 1"},
		{[]string{"-shards", "4"}, undefined + "-shards"},
		{[]string{"-for", "5s"}, undefined + "-for"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-conns", "2"}, undefined + "-conns"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-ring-slots", "128"}, undefined + "-ring-slots"},
		{[]string{"-ingest-pipeline=false"}, undefined + "-ingest-pipeline"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-ring-slots", "0"}, undefined + "-ring-slots"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-ring-batch", "0"}, undefined + "-ring-batch"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-ring-policy", "shed"}, "must be block or drop"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-ingest-pipeline=false", "-slo-p99", "5"}, "only -ingest-pipeline records"},
		{[]string{"serve"}, "-listen is required"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-for", "-1s"}, "-for must not be negative"},
		{[]string{"load", "-connect", "127.0.0.1:9", "-devices", "2"}, undefined + "-devices"},
		{[]string{"load", "-connect", "127.0.0.1:9", "-metrics"}, undefined + "-metrics"},
		{[]string{"load", "-connect", "127.0.0.1:9", "-run", "F3"}, undefined + "-run"},
		{[]string{"-conns", "4"}, undefined + "-conns"},
		{[]string{"load", "-connect", "127.0.0.1:9", "-conns", "0"}, "counts must be at least 1"},
		{[]string{"load", "-connect", "127.0.0.1:9", "-conns", "128"}, "would leave some idle"},
		{[]string{"load", "-duration", "3s"}, "load generator needs -connect"},
		{[]string{"load", "-connect", "127.0.0.1:9", "-duration", "-1s"}, "-duration must be positive"},
		{[]string{"load", "-connect", "127.0.0.1:9", "-duration", "0s"}, "-duration must be positive"},
		{[]string{"load"}, "needs -connect"},
		{[]string{"load", "-connect", "127.0.0.1:9", "-conns", "1,2"}, `invalid value "1,2" for flag -conns`},
		{[]string{"-connect", "127.0.0.1:9"}, undefined + "-connect"},
		{[]string{"fleet", "-devices", "4", "-connect", "127.0.0.1:9", "-reliable"}, "acks cannot cross the -connect byte stream"},
		{[]string{"fleet", "-devices", "2", "-run", "F3"}, undefined + "-run"},
		{[]string{"fleet", "-devices", "2", "-csv", "out"}, undefined + "-csv"},
		{[]string{"scale", "-devices", "100", "-o", "report.txt"}, undefined + "-o"},
		{[]string{"-workers", "4"}, undefined + "-workers"},
		{[]string{"fleet", "-devices", "2", "-burst-len", "3"}, "set -burst > 0 as well"},
		{[]string{"fleet", "-devices", "2", "-ack-loss", "0.1"}, "add -reliable"},
		{[]string{"-loss", "0.1"}, undefined + "-loss"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Fatalf("%v accepted", tc.args)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%v: error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}

// TestConnectFleetEndToEnd points a fleet run at a live ingest server: the
// CLI must announce the forwarding, the report must defer host accounting
// to the server, and the server must decode every device's frames.
func TestConnectFleetEndToEnd(t *testing.T) {
	srv, err := hubnet.Serve("127.0.0.1:0", hubnet.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var out bytes.Buffer
	if err := run([]string{"fleet", "-devices", "4", "-connect", srv.Addr().String()}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hubnet: forwarding frames to", "frames forwarded to"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	// run() has returned and closed the stream, but the server drains it
	// asynchronously: wait for every device's frames to land.
	gw := srv.Gateway()
	deadline := time.Now().Add(5 * time.Second)
	for gw.Stats().Devices < 4 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	hs := gw.Stats()
	if hs.Devices != 4 || hs.Decoded == 0 || hs.BadFrames != 0 {
		t.Fatalf("server accounting after fleet run: %+v", hs)
	}
}

// TestConnectScaleEndToEnd points a scale run at a live ingest
// server: one stream per worker, every emitted frame decodable server-side.
func TestConnectScaleEndToEnd(t *testing.T) {
	srv, err := hubnet.Serve("127.0.0.1:0", hubnet.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var out bytes.Buffer
	args := []string{"scale", "-devices", "40", "-workers", "4", "-seed", "9",
		"-duration", "300ms", "-connect", srv.Addr().String()}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hubnet: streaming frames to") {
		t.Fatalf("output missing streaming banner:\n%s", out.String())
	}
	gw := srv.Gateway()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if gw.Stats().Decoded > 0 && gw.NetStats().ConnsTotal >= 4 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	ns, hs := gw.NetStats(), gw.Stats()
	if hs.Decoded == 0 || hs.BadFrames != 0 {
		t.Fatalf("server decoded %d frames (%d bad) from the scale run", hs.Decoded, hs.BadFrames)
	}
	if ns.ConnsTotal != 4 {
		t.Fatalf("scale run opened %d connections, want one per worker (4)", ns.ConnsTotal)
	}
}

// syncBuf is a writer safe to read while runServe writes from a goroutine.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}
func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeRunSummary drives the serve command end to end through run(): boot
// on an ephemeral port, feed it frames from three devices over one
// connection, and check the deadline-bounded server prints per-shard
// accounting that matches what was sent.
func TestServeRunSummary(t *testing.T) {
	out := &syncBuf{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-listen", "127.0.0.1:0", "-shards", "2", "-for", "2s"}, out)
	}()

	addrRe := regexp.MustCompile(`serving frame ingest on (\S+) \(2 shard\(s\)\)`)
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if addr == "" {
		t.Fatalf("server never announced its address:\n%s", out.String())
	}

	conn, err := hubnet.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for dev := uint32(1); dev <= 3; dev++ {
		for seq := 0; seq < 5; seq++ {
			p, err := (rf.Message{Kind: rf.MsgScroll, Device: dev, Seq: uint16(seq), AtMillis: uint32(seq) * 40}).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := conn.Forward(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"15 frames (0 bad",
		"hub: 3 device(s), 15 frames decoded",
		"shard 0:",
		"shard 1:",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("serve summary missing %q:\n%s", want, got)
		}
	}
}
