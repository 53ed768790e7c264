package distscroll_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	distscroll "github.com/hcilab/distscroll"
	"github.com/hcilab/distscroll/internal/history"
)

// get fetches an ops endpoint and returns status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestFleetOpsServer(t *testing.T) {
	f, err := distscroll.NewFleet(4,
		distscroll.WithEntries(10),
		distscroll.WithSeed(7),
		distscroll.WithOpsServer("127.0.0.1:0"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.CloseOps()

	url := f.OpsURL()
	if !strings.HasPrefix(url, "http://127.0.0.1:") {
		t.Fatalf("OpsURL = %q", url)
	}

	// The plane is scrapeable before the run: registry exists (implied by
	// WithOpsServer), counters are simply zero.
	if code, _ := get(t, url+"/healthz"); code != http.StatusOK {
		t.Fatalf("pre-run /healthz = %d", code)
	}

	if _, err := f.RunAll(); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, url+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"fw_cycles_total", "rf_frames_sent_total", "hub_frames_decoded_total"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%.2000s", want, body)
		}
	}

	code, body = get(t, url+"/vars")
	if code != http.StatusOK {
		t.Fatalf("/vars = %d", code)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/vars not JSON: %v\n%.500s", err, body)
	}
	if snap.Counters["fw_cycles_total"] == 0 {
		t.Fatalf("no cycles after run: %v", snap.Counters)
	}

	if !f.Healthy() {
		t.Fatalf("fleet without SLO rules reports unhealthy")
	}
	if err := f.CloseOps(); err != nil {
		t.Fatal(err)
	}
	if err := f.CloseOps(); err != nil {
		t.Fatalf("second CloseOps: %v", err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still listening after CloseOps")
	}
}

func TestFleetSLOWatchdogHealthyRun(t *testing.T) {
	f, err := distscroll.NewFleet(4,
		distscroll.WithEntries(10),
		distscroll.WithSeed(3),
		distscroll.WithOpsServer("127.0.0.1:0"),
		distscroll.WithSLOWatchdog(distscroll.SLO{
			LatencyP99: time.Hour,
			StallAfter: time.Hour,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.CloseOps()
	if _, err := f.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !f.Healthy() {
		t.Fatalf("healthy run breached: %v", f.SLOBreaches())
	}
	if code, _ := get(t, f.OpsURL()+"/healthz"); code != http.StatusOK {
		t.Fatalf("post-run /healthz = %d", code)
	}
	if got := f.SLOBreaches(); len(got) != 0 {
		t.Fatalf("breaches on healthy run: %v", got)
	}
}

func TestOpsOptionValidation(t *testing.T) {
	// Device constructor rejects the fleet-only ops options.
	if _, err := distscroll.New(distscroll.WithEntries(10), distscroll.WithOpsServer("127.0.0.1:0")); err == nil {
		t.Fatal("New accepted WithOpsServer")
	}
	if _, err := distscroll.New(distscroll.WithEntries(10), distscroll.WithSLOWatchdog(distscroll.SLO{StallAfter: time.Second})); err == nil {
		t.Fatal("New accepted WithSLOWatchdog")
	}
	// Empty address and empty rule set are configuration errors.
	if _, err := distscroll.NewFleet(2, distscroll.WithEntries(10), distscroll.WithOpsServer("")); err == nil {
		t.Fatal("empty ops address accepted")
	}
	if _, err := distscroll.NewFleet(2, distscroll.WithEntries(10), distscroll.WithSLOWatchdog(distscroll.SLO{})); err == nil {
		t.Fatal("ruleless SLO accepted")
	}
}

func TestFleetWatchdogWithoutServer(t *testing.T) {
	// WithSLOWatchdog alone still records breaches via Healthy/SLOBreaches.
	f, err := distscroll.NewFleet(2,
		distscroll.WithEntries(10),
		distscroll.WithSeed(1),
		distscroll.WithSLOWatchdog(distscroll.SLO{StallAfter: time.Hour}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if f.OpsURL() != "" {
		t.Fatalf("OpsURL without server = %q", f.OpsURL())
	}
	if _, err := f.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !f.Healthy() {
		t.Fatalf("healthy run breached: %v", f.SLOBreaches())
	}
	if err := f.CloseOps(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetWatchdogImpliedHistoryStops: WithSLOWatchdog without WithHistory
// runs a history sampler at its defaults (the watchdog evaluates its
// windows), and CloseOps stops it: the sampler records its last window at
// close, then captures nothing more.
func TestFleetWatchdogImpliedHistoryStops(t *testing.T) {
	f, err := distscroll.NewFleet(2,
		distscroll.WithEntries(10),
		distscroll.WithSeed(1),
		distscroll.WithSLOWatchdog(distscroll.SLO{StallAfter: time.Hour}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunAll(); err != nil {
		t.Fatal(err)
	}
	if err := f.CloseOps(); err != nil {
		t.Fatal(err)
	}
	captured := func() uint64 {
		var buf bytes.Buffer
		if err := f.WriteHistory(&buf, 1); err != nil {
			t.Fatal(err)
		}
		var doc historyDoc
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("WriteHistory not JSON: %v", err)
		}
		return doc.Count
	}
	closed := captured()
	if closed == 0 {
		t.Fatal("implied history sampler recorded no window at close")
	}
	time.Sleep(history.DefaultInterval + 200*time.Millisecond)
	if got := captured(); got != closed {
		t.Fatalf("sampler still running after CloseOps: %d -> %d windows", closed, got)
	}
}
