package ops

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

// histClock advances one second per sample so rates are exact.
func histClock() func() time.Time {
	t := time.UnixMilli(1_700_000_000_000)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

func newHistStore(t *testing.T, reg *telemetry.Registry) *history.Store {
	t.Helper()
	st, err := history.New(history.Config{Registry: reg, Windows: 16, Interval: time.Second, Now: histClock()})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHandlerHistoryDisabled(t *testing.T) {
	h := Handler(Config{Registry: telemetry.New()})
	if code, body := getBody(t, h, "/api/history"); code != http.StatusNotFound || !strings.Contains(body, "history disabled") {
		t.Fatalf("/api/history without a store: %d %q", code, body)
	}
	if code, _ := getBody(t, h, "/dash"); code != http.StatusNotFound {
		t.Fatalf("/dash without a store: %d", code)
	}
}

func TestHandlerHistoryQuery(t *testing.T) {
	reg := telemetry.New()
	c := reg.Counter(telemetry.MetricHubDecoded)
	st := newHistStore(t, reg)
	for i := 0; i < 5; i++ {
		c.Add(100)
		st.Sample()
	}
	h := Handler(Config{Registry: reg, History: st})

	code, body := getBody(t, h, "/api/history")
	if code != http.StatusOK {
		t.Fatalf("/api/history status %d", code)
	}
	var res history.Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("/api/history not JSON: %v\n%s", err, body)
	}
	if res.Count != 5 || len(res.Times) != 5 {
		t.Fatalf("count=%d times=%d", res.Count, len(res.Times))
	}
	sd, ok := res.Series[telemetry.MetricHubDecoded]
	if !ok || sd.Kind != "counter" || len(sd.Values) != 5 {
		t.Fatalf("series: %+v", res.Series)
	}
	// First-sight window is 0, then 100/s.
	if sd.Values[0] != 0 || sd.Values[4] != 100 {
		t.Fatalf("rates %v", sd.Values)
	}

	// k and series selection.
	code, body = getBody(t, h, "/api/history?k=2&series="+telemetry.MetricHubDecoded)
	if code != http.StatusOK {
		t.Fatalf("filtered status %d", code)
	}
	res = history.Result{}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 2 || len(res.Series) != 1 || res.Start != 3 {
		t.Fatalf("filtered: start=%d times=%d series=%d", res.Start, len(res.Times), len(res.Series))
	}

	// Prefix selection and bad-k rejection.
	if code, _ := getBody(t, h, "/api/history?prefix=nomatch_"); code != http.StatusOK {
		t.Fatalf("prefix query status %d", code)
	}
	if code, _ := getBody(t, h, "/api/history?k=-1"); code != http.StatusBadRequest {
		t.Fatalf("negative k accepted: %d", code)
	}
	if code, _ := getBody(t, h, "/api/history?k=zzz"); code != http.StatusBadRequest {
		t.Fatalf("non-numeric k accepted: %d", code)
	}
}

// TestHandlerDash asserts the dashboard is served self-contained: valid
// HTML, inline script and styles, no external asset references.
func TestHandlerDash(t *testing.T) {
	reg := telemetry.New()
	st := newHistStore(t, reg)
	code, body := getBody(t, Handler(Config{Registry: reg, History: st}), "/dash")
	if code != http.StatusOK {
		t.Fatalf("/dash status %d", code)
	}
	for _, want := range []string{"<!DOCTYPE html>", "<svg", "/api/history", "<style>", "<script>", "net_ring_wait_ms"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/dash missing %q", want)
		}
	}
	for _, banned := range []string{"http://", "https://", "src=\"//", "@import", "url("} {
		if strings.Contains(body, banned) {
			t.Fatalf("/dash references an external asset (%q)", banned)
		}
	}
}

// TestHealthzBreachJSON pins the satellite contract: the 503 body is
// structured JSON carrying rule, metric, value, limit, and window.
func TestHealthzBreachJSON(t *testing.T) {
	w := &Watchdog{}
	w.breaches = append(w.breaches, Breach{
		Rule: "latency-p99", Metric: "hub_e2e_latency_ms",
		Value: 80, Limit: 50, WindowSeconds: 1.5, AtMillis: 1234,
	})
	code, body := getBody(t, Handler(Config{Registry: telemetry.New(), Watchdog: w}), "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("breached /healthz status %d", code)
	}
	var got healthzBody
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("breached /healthz body is not JSON: %v\n%s", err, body)
	}
	if got.Status != "slo breach" || len(got.Breaches) != 1 {
		t.Fatalf("body %+v", got)
	}
	b := got.Breaches[0]
	if b.Rule != "latency-p99" || b.Metric != "hub_e2e_latency_ms" ||
		b.Value != 80 || b.Limit != 50 || b.WindowSeconds != 1.5 || b.AtMillis != 1234 {
		t.Fatalf("breach fields %+v", b)
	}

	// Healthy body stays the plain-text "ok" contract scripts rely on.
	code, body = getBody(t, Handler(Config{Registry: telemetry.New()}), "/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthy /healthz: %d %q", code, body)
	}
}

// TestWatchdogBreachForensics drives the full pipeline by hand: a
// min-rate breach marks the history timeline, the post-breach tail
// completes, the capture lands on the Breach record, and the flight
// recorder dumps the pre/post table through the watchdog's recorder.
func TestWatchdogBreachForensics(t *testing.T) {
	reg := telemetry.New()
	c := reg.Counter(telemetry.MetricHubDecoded)
	c.Add(100)

	var dump strings.Builder
	tracer := tracing.New(tracing.Config{Capacity: 64, Bounded: true, DumpTo: &dump})
	st := newHistStore(t, reg)
	w := startOn(t, st, WatchdogConfig{
		MinRate:           map[string]float64{telemetry.MetricHubDecoded: 1000},
		Tracer:            tracer,
		PostBreachWindows: 2,
	})

	st.Sample() // pre-breach history
	st.Sample() // counter did not move fast enough: min-rate breach

	bs := w.Breaches()
	if len(bs) != 1 || bs[0].Rule != "min-rate" {
		t.Fatalf("breaches %+v", bs)
	}
	if bs[0].History != nil {
		t.Fatal("forensics attached before the post-breach tail completed")
	}
	if bs[0].WindowSeconds != 1 {
		t.Fatalf("breach window %g, want 1", bs[0].WindowSeconds)
	}

	// The pipeline recovers: the tail windows are healthy.
	for i := 0; i < 2; i++ {
		c.Add(1000)
		st.Sample() // the second completes the tail: forensics fire
	}

	bs = w.Breaches()
	if bs[0].History == nil {
		t.Fatal("forensics never attached to the breach record")
	}
	if _, ok := bs[0].History.Series[telemetry.MetricHubDecoded]; !ok {
		t.Fatalf("capture missing the breach metric: %+v", bs[0].History.Series)
	}

	out := dump.String()
	for _, want := range []string{"FLIGHT RECORDER", "slo-watchdog", "pre/post-breach history", "<- breach"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	if got := len(tracer.Recorders()); got != 1 {
		t.Fatalf("watchdog made %d recorders, want its one", got)
	}

	// The marker is on the query timeline for the dashboard and on the
	// table row of the window whose rate breached (window 1).
	res := st.Query(history.Query{})
	if len(res.Breaches) != 1 || res.Breaches[0].Rule != "min-rate" || res.Breaches[0].Window != 1 {
		t.Fatalf("history breach markers %+v", res.Breaches)
	}
	if !strings.Contains(out, fmt.Sprintf(">%8d ", 1)) {
		t.Fatalf("table does not mark window 1 as the breach:\n%s", out)
	}
}

// TestWatchdogForensicsFlushOnStop covers the run-ends-inside-the-tail
// path: Store.Stop flushes the pending capture so the dump still fires.
func TestWatchdogForensicsFlushOnStop(t *testing.T) {
	reg := telemetry.New()
	var dump strings.Builder
	tracer := tracing.New(tracing.Config{Capacity: 64, Bounded: true, DumpTo: &dump})
	st := newHistStore(t, reg)
	w := startOn(t, st, WatchdogConfig{
		MinRate: map[string]float64{telemetry.MetricHubDecoded: 1000},
		Tracer:  tracer,
	})
	st.Sample()
	st.Sample()
	st.Stop() // run over before the tail: capture flushes now
	if bs := w.Breaches(); len(bs) == 0 || bs[0].History == nil {
		t.Fatal("Stop did not flush the pending forensics capture")
	}
	if !strings.Contains(dump.String(), "pre/post-breach history") {
		t.Fatalf("no forensics dump after flush:\n%s", dump.String())
	}
}
