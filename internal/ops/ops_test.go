package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/telemetry"
)

func getBody(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestHandlerMetrics(t *testing.T) {
	reg := telemetry.New()
	reg.Counter(telemetry.MetricFwCycles).Add(42)
	reg.Gauge(telemetry.MetricSimDevices).Set(7)
	h := Handler(Config{Registry: reg})

	code, body := getBody(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "fw_cycles_total 42") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(body, "sim_devices 7") {
		t.Fatalf("/metrics missing gauge:\n%s", body)
	}
}

func TestHandlerVars(t *testing.T) {
	reg := telemetry.New()
	reg.Counter(telemetry.MetricHubEvents).Add(9)
	code, body := getBody(t, Handler(Config{Registry: reg}), "/vars")
	if code != http.StatusOK {
		t.Fatalf("/vars status %d", code)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/vars not JSON: %v\n%s", err, body)
	}
	if snap.Counters[telemetry.MetricHubEvents] != 9 {
		t.Fatalf("/vars counters wrong: %+v", snap.Counters)
	}
}

func TestHandlerHealthz(t *testing.T) {
	// Without a watchdog /healthz is always ok.
	code, body := getBody(t, Handler(Config{Registry: telemetry.New()}), "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("watchdog-less /healthz: %d %q", code, body)
	}

	// A latched breach flips it to 503 and lists the failure.
	w := &Watchdog{}
	w.breaches = append(w.breaches, Breach{Rule: "min-rate", Metric: "hub_events_total", Value: 0, Limit: 10})
	code, body = getBody(t, Handler(Config{Registry: telemetry.New(), Watchdog: w}), "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("breached /healthz status %d", code)
	}
	if !strings.Contains(body, "min-rate") || !strings.Contains(body, "hub_events_total") {
		t.Fatalf("breached /healthz body %q", body)
	}
}

func TestHandlerIndexAndPprof(t *testing.T) {
	h := Handler(Config{Registry: telemetry.New()})
	code, body := getBody(t, h, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", code, body)
	}
	if code, _ := getBody(t, h, "/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d", code)
	}
	code, body = getBody(t, h, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: %d", code)
	}
}

// TestServeScrapesLiveRegistry runs the real server end to end: bind port
// 0, scrape over TCP, watch a counter move between scrapes.
func TestServeScrapesLiveRegistry(t *testing.T) {
	reg := telemetry.New()
	reg.Counter(telemetry.MetricHubEvents).Add(1)
	srv, err := Serve("127.0.0.1:0", Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	scrape := func() string {
		resp, err := http.Get(srv.URL() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if body := scrape(); !strings.Contains(body, "hub_events_total 1") {
		t.Fatalf("first scrape:\n%s", body)
	}
	reg.Counter(telemetry.MetricHubEvents).Add(5)
	if body := scrape(); !strings.Contains(body, "hub_events_total 6") {
		t.Fatalf("second scrape did not see live mutation:\n%s", body)
	}
}

func TestServeNilServerAccessors(t *testing.T) {
	var s *Server
	if s.Addr() != "" || s.URL() != "" || s.Close() != nil {
		t.Fatal("nil server accessors must be inert")
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bad", Config{}); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

// Watchdog-to-healthz integration: a registry whose counters never move
// breaches the min-rate rule and flips the endpoint.
func TestWatchdogFlipsHealthz(t *testing.T) {
	reg := telemetry.New()
	w := StartWatchdog(WatchdogConfig{
		History: startStore(t, reg, 5*time.Millisecond),
		MinRate: map[string]float64{telemetry.MetricHubEvents: 1000},
	})
	defer w.Stop()
	h := Handler(Config{Registry: reg, Watchdog: w})
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, _ := getBody(t, h, "/healthz")
		if code == http.StatusServiceUnavailable {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("/healthz never flipped on a drained pipeline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
