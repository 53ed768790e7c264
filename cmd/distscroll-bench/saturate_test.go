package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSaturateLoadAgainstServe is the load generator's end-to-end test:
// a pipelined serve command in one goroutine, load -connect in
// another, and the server's post-run summary must account for exactly the
// frames the generator reports, with ring batches proving the pipeline
// carried them.
func TestSaturateLoadAgainstServe(t *testing.T) {
	srvOut := &syncBuf{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-listen", "127.0.0.1:0", "-shards", "2", "-for", "3s"}, srvOut)
	}()
	addrRe := regexp.MustCompile(`serving frame ingest on (\S+) \(2 shard\(s\)\)`)
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		if m := addrRe.FindStringSubmatch(srvOut.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if addr == "" {
		t.Fatalf("server never announced its address:\n%s", srvOut.String())
	}
	if !strings.Contains(srvOut.String(), "ingest pipeline on") {
		t.Fatalf("serve default did not enable the pipeline:\n%s", srvOut.String())
	}

	var genOut bytes.Buffer
	if err := run([]string{"load", "-connect", addr, "-conns", "2", "-duration", "300ms"}, &genOut); err != nil {
		t.Fatal(err)
	}
	sentRe := regexp.MustCompile(`streamed (\d+) frames`)
	m := sentRe.FindStringSubmatch(genOut.String())
	if m == nil {
		t.Fatalf("load generator reported nothing:\n%s", genOut.String())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := srvOut.String()
	if !strings.Contains(got, m[1]+" frames (0 bad") {
		t.Fatalf("server summary does not account for the %s streamed frames:\n%s", m[1], got)
	}
	if !regexp.MustCompile(`pipeline: [1-9]\d* ring batch\(es\)`).MatchString(got) {
		t.Fatalf("no ring batches in the pipeline summary:\n%s", got)
	}
}
