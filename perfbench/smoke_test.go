package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// output against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runSmoke runs the benchmark in its seconds-long smoke configuration and
// returns the parsed result line.
func runSmoke(t *testing.T, args ...string) result {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"-smoke", "-seed", "1", "-out", t.TempDir()}, args...)
	code, err := run(args, &out)
	if err != nil || code != 0 {
		t.Fatalf("run %v: code %d, err %v\n%s", args, code, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("checks failed: correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, out.String())
	}
	return r
}

// checkNames requires the result to carry exactly the named metrics,
// each with its declared unit.
func checkNames(t *testing.T, r result, want []struct{ Name, Unit string }) {
	t.Helper()
	var missing []string
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(r.Metrics) != len(want) || len(missing) > 0 {
		var names []string
		for k := range r.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		t.Fatalf("metrics %v, missing %v", names, missing)
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := runSmoke(t, "-workload", w.name, "-seconds", "1", "-trace", "0")
			checkNames(t, r, spec.EndToEnd)
		})
	}
}

func TestSmokePerLayer(t *testing.T) {
	r := runSmoke(t, "-workload", "fleet-arq", "-seconds", "2", "-trace", "1")
	checkNames(t, r, loadSpec(t).PerLayer)
}
