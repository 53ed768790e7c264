package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/history"
)

// TestScaleHistoryOut pins the -history-* flags end to end on the scale
// path: the run samples while live and the final JSON replay file decodes
// with the canonical series present.
func TestScaleHistoryOut(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hist.json")
	var out bytes.Buffer
	if err := run([]string{
		"scale", "-devices", "400", "-seed", "3", "-duration", "2s",
		"-history-windows", "64", "-history-interval", "50ms", "-history-out", path,
	}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "history: sampling telemetry every 50ms, retaining 64 windows") {
		t.Fatalf("no history banner in:\n%s", s)
	}
	if !strings.Contains(s, "wrote telemetry history") {
		t.Fatalf("no history-out line in:\n%s", s)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc history.Result
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("history-out not JSON: %v\n%.300s", err, data)
	}
	if doc.Capacity != 64 || doc.Count == 0 {
		t.Fatalf("history shape: capacity=%d count=%d", doc.Capacity, doc.Count)
	}
	// The close-path final sample guarantees the end-of-run totals landed.
	sd, ok := doc.Series["sim_devices"]
	if !ok {
		t.Fatalf("history missing sim_devices; have %d series", len(doc.Series))
	}
	if n := len(sd.Values); n == 0 || sd.Values[n-1] != 400 {
		t.Fatalf("sim_devices history = %v", sd.Values)
	}
	if _, ok := doc.Series["hub_e2e_latency_ms"]; !ok {
		t.Fatal("history missing the latency digest series")
	}
}

// TestServeHistoryEndpoints boots serve with the ops plane and history on
// ephemeral ports and scrapes /api/history and /dash over real HTTP.
func TestServeHistoryEndpoints(t *testing.T) {
	out := &syncBuf{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"serve", "-listen", "127.0.0.1:0", "-for", "3s",
			"-ops-listen", "127.0.0.1:0",
			"-history-windows", "32", "-history-interval", "50ms",
		}, out)
	}()

	listenRe := regexp.MustCompile(`ops plane listening on (\S+) \([^)]*api/history[^)]*\)`)
	var url string
	deadline := time.Now().Add(5 * time.Second)
	for url == "" && time.Now().Before(deadline) {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			url = m[1]
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if url == "" {
		t.Fatalf("ops plane never announced history endpoints:\n%s", out.String())
	}

	get := func(u string) (int, string) {
		t.Helper()
		resp, err := http.Get(u)
		if err != nil {
			t.Fatalf("GET %s: %v", u, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	code, body := get(url + "/api/history?k=8")
	if code != http.StatusOK {
		t.Fatalf("/api/history = %d:\n%.300s", code, body)
	}
	var doc history.Result
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/api/history not JSON: %v\n%.300s", err, body)
	}
	if doc.Capacity != 32 {
		t.Fatalf("capacity = %d, want 32", doc.Capacity)
	}
	code, body = get(url + "/dash")
	if code != http.StatusOK || !strings.Contains(body, "<svg") {
		t.Fatalf("/dash = %d, svg=%v", code, strings.Contains(body, "<svg"))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestHistoryFlagValidation pins the rejections of history flag misuse.
func TestHistoryFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"scale", "-devices", "100", "-history-windows", "0"}, "-history-windows must be at least 1"},
		{[]string{"scale", "-devices", "100", "-history-interval", "-1s"}, "-history-interval must be positive"},
		{[]string{"-history-out", "x.json"}, "flag provided but not defined: -history-out"},
		{[]string{"-history-windows", "16", "-run", "F3"}, "flag provided but not defined: -history-windows"},
		{[]string{"load", "-connect", "127.0.0.1:9", "-history-out", "x.json"}, "flag provided but not defined: -history-out"},
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
