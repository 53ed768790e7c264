package ops

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/telemetry"
)

func TestHandlerDevice(t *testing.T) {
	reg := telemetry.New()
	hub := core.NewHubWithMetrics(false, reg)
	hub.Consume(rf.Message{Kind: rf.MsgScroll, Device: 7, Seq: 0, AtMillis: 10}, 14*time.Millisecond)
	hub.Consume(rf.Message{Kind: rf.MsgScroll, Device: 7, Seq: 2, AtMillis: 20}, 23*time.Millisecond)
	h := Handler(Config{Registry: reg, Lookup: hub.Lookup})

	for _, tc := range []struct {
		name, query string
		code        int
	}{
		{"valid id", "id=7", http.StatusOK},
		{"unknown id", "id=8", http.StatusNotFound},
		{"non-numeric id", "id=seven", http.StatusBadRequest},
		{"negative id", "id=-1", http.StatusBadRequest},
		{"id above MaxUint32", "id=4294967296", http.StatusBadRequest},
		{"missing id", "", http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, body := getBody(t, h, "/api/device?"+tc.query)
			if code != tc.code {
				t.Fatalf("status %d, want %d: %s", code, tc.code, body)
			}
			if code != http.StatusOK {
				return
			}
			var got deviceBody
			if err := json.Unmarshal([]byte(body), &got); err != nil {
				t.Fatalf("not JSON: %v\n%s", err, body)
			}
			if got.Device != 7 || got.Stats.Decoded != 2 || got.Stats.MissedSeq != 1 {
				t.Fatalf("device body: %+v", got)
			}
			if l := got.Latency; l == nil || l.Count != 2 || l.Sum != 7 || l.P99 == 0 {
				t.Fatalf("latency: %+v", got.Latency)
			}
		})
	}

	// Without a lookup (a scale run, a forwarding client) the endpoint
	// exists but has nothing to read.
	if code, body := getBody(t, Handler(Config{Registry: reg}), "/api/device?id=7"); code != http.StatusNotFound || !strings.Contains(body, "not available") {
		t.Fatalf("no lookup: status %d: %s", code, body)
	}
}
