package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSelectedExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "F3,F4", "-seed", "9"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "F3") || !strings.Contains(s, "F4") {
		t.Fatalf("report:\n%s", s)
	}
	if !strings.Contains(s, "fit_r2") {
		t.Fatalf("missing metrics:\n%s", s)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "Z9"}, &out); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunWritesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.txt")
	var out bytes.Buffer
	if err := run([]string{"-run", "F3", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Hardware inventory") {
		t.Fatalf("file report:\n%s", data)
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-run", "F3", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	trials, err := os.ReadFile(filepath.Join(dir, "trials.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trials), "P01") || !strings.Contains(string(trials), "wrong_selection") {
		t.Fatalf("trials.csv:\n%.200s", trials)
	}
	conds, err := os.ReadFile(filepath.Join(dir, "conditions.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"distscroll", "hybrid", "winter", "throughput_bps"} {
		if !strings.Contains(string(conds), want) {
			t.Fatalf("conditions.csv missing %q:\n%.300s", want, conds)
		}
	}
}

func TestRunCaseInsensitiveIDs(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "f3"}, &out); err != nil {
		t.Fatal(err)
	}
}

func TestFleetMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"fleet", "-devices", "5", "-seed", "4", "-workers", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "fleet report (5 devices, seed 4)") {
		t.Fatalf("report header:\n%s", s)
	}
	// One table row per device plus the aggregate lines.
	for _, want := range []string{"frames sent", "decode throughput"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
	if got := strings.Count(s, "\n"); got < 5+5 {
		t.Fatalf("report too short (%d lines):\n%s", got, s)
	}
}

func TestFleetModeWritesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.txt")
	var out bytes.Buffer
	if err := run([]string{"fleet", "-devices", "2", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fleet report (2 devices") {
		t.Fatalf("file report:\n%s", data)
	}
}

func TestFleetMetricsOut(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	var out bytes.Buffer
	if err := run([]string{"fleet", "-devices", "6", "-seed", "2", "-metrics-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetryReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%.300s", err, data)
	}
	if rep.Devices != 6 || len(rep.PerDevice) != 6 {
		t.Fatalf("device counts: %+v", rep)
	}
	var delivered uint64
	for _, d := range rep.PerDevice {
		if d.Sent == 0 {
			t.Fatalf("device %d sent no frames", d.Device)
		}
		if d.Sent != d.Delivered+d.Lost+d.Corrupted {
			t.Fatalf("device %d loss accounting: %+v", d.Device, d)
		}
		delivered += d.Delivered
	}
	if rep.Metrics == nil {
		t.Fatal("no metrics snapshot in report")
	}
	// Acceptance: the e2e latency histogram holds exactly one observation
	// per delivered frame.
	lat, ok := rep.Metrics.Histogram("hub_e2e_latency_ms")
	if !ok {
		t.Fatal("no e2e latency histogram")
	}
	if lat.Count != delivered {
		t.Fatalf("latency observations %d != delivered frames %d", lat.Count, delivered)
	}
	var bucketSum uint64
	for _, c := range lat.Counts {
		bucketSum += c
	}
	if bucketSum != delivered {
		t.Fatalf("bucket counts sum %d != delivered frames %d", bucketSum, delivered)
	}
}

func TestFleetMetricsExposition(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"fleet", "-devices", "3", "-seed", "8", "-metrics"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Telemetry (Prometheus exposition)",
		"# TYPE rf_frames_sent_total counter",
		"hub_e2e_latency_ms_bucket",
		`hub_e2e_latency_ms_count{device="1"}`,
		"fw_cycles_total",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%.2000s", want, s)
		}
	}
}

// TestFleetMetricsOneTypePerFamily parses a 70-device exposition body — the
// aggregate latency histogram plus 64 per-device series — and requires one
// TYPE line per metric family, with every sample of the family directly
// beneath it.
func TestFleetMetricsOneTypePerFamily(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"fleet", "-devices", "70", "-seed", "8", "-metrics"}, &out); err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(out.String(), "Telemetry (Prometheus exposition)\n")
	if !ok {
		t.Fatalf("no exposition in:\n%.2000s", out.String())
	}
	types := map[string]int{}
	family, kind := "", ""
	samples := 0
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			family, kind = f[2], f[3]
			types[family]++
			if types[family] > 1 {
				t.Fatalf("family %s has more than one TYPE line", family)
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "---") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		want := name == family
		if kind == "histogram" {
			want = name == family+"_bucket" || name == family+"_sum" || name == family+"_count"
		}
		if !want {
			t.Fatalf("sample %q is not under its family's TYPE line (current family %s)", line, family)
		}
		samples++
	}
	if types["hub_e2e_latency_ms"] != 1 || samples < 65*25 {
		t.Fatalf("parsed %d families, %d samples: want the latency family and its 65 series", len(types), samples)
	}
}

func TestScaleMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"scale", "-devices", "500", "-seed", "3", "-duration", "1s"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "scale sweep (seed 3") || !strings.Contains(s, "rt_factor") {
		t.Fatalf("scale report:\n%s", s)
	}
	if !strings.Contains(s, "      500") {
		t.Fatalf("missing 500-device row:\n%s", s)
	}
}

func TestScaleSweepList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"scale", "-devices", "100,200", "-duration", "500ms"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "      100") || !strings.Contains(s, "      200") {
		t.Fatalf("sweep rows missing:\n%s", s)
	}
}

func TestScaleValidationRejectsBadDevices(t *testing.T) {
	for _, args := range [][]string{
		{"scale", "-devices", "0"},
		{"scale", "-devices", "-3"},
		{"scale", "-devices", "100,0"},
		{"scale", "-devices", "abc"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

func TestScaleWarnsOnExcessWorkers(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"scale", "-devices", "2", "-workers", "9", "-duration", "100ms"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "warning: -workers 9 exceeds -devices 2; running 2 workers") {
		t.Fatalf("no worker warning:\n%s", out.String())
	}
}
