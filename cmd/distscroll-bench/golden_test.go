package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden report_seed1.txt from current output")

// TestGoldenReportSeed1 pins the full seed-1 experiment report against the
// repo's report_seed1.txt. The report is the paper-reproduction artifact —
// every figure and table — so any behavioural drift in the simulation
// shows up here as a diff. Refresh intentionally with:
//
//	go test ./cmd/distscroll-bench -run TestGoldenReportSeed1 -update
func TestGoldenReportSeed1(t *testing.T) {
	golden := filepath.Join("..", "..", "report_seed1.txt")

	var out bytes.Buffer
	if err := run([]string{"-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}

	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, out.Len())
		return
	}

	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, exp := out.Bytes(), want
		// Point at the first divergent line so the failure is actionable
		// without diffing 400 lines by hand.
		line, gl, wl := firstDiffLine(got, exp)
		t.Fatalf("seed-1 report drifted from report_seed1.txt at line %d:\n  golden: %q\n  got:    %q\n"+
			"intentional change? refresh with: go test ./cmd/distscroll-bench -run TestGoldenReportSeed1 -update",
			line, wl, gl)
	}
}

// TestGoldenHelpOutput pins the -h flag listing of the bare command against
// testdata/help.txt and of each subcommand against testdata/help_<cmd>.txt,
// so every flag is a deliberate, reviewed part of one command's surface.
// Refresh with:
//
//	go test ./cmd/distscroll-bench -run TestGoldenHelpOutput -update
func TestGoldenHelpOutput(t *testing.T) {
	for _, tc := range []struct {
		cmd   string
		flags []string
	}{
		{"", []string{"-run", "-seed", "-o", "-csv", "fleet", "scale", "serve", "load"}},
		{"fleet", []string{"-devices", "-workers", "-reliable", "-loss", "-trace-out", "-connect", "-ops-listen", "-cpuprofile"}},
		{"scale", []string{"-devices", "-duration", "-workers", "-loss", "-metrics", "-connect", "-history-out", "-cpuprofile"}},
		{"serve", []string{"-listen", "-shards", "-for", "-ingest-pipeline", "-ring-policy", "-slo-stall", "-cpuprofile"}},
		{"load", []string{"-connect", "-conns", "-duration", "-cpuprofile"}},
	} {
		args, golden := []string{"-h"}, filepath.Join("testdata", "help.txt")
		if tc.cmd != "" {
			args = []string{tc.cmd, "-h"}
			golden = filepath.Join("testdata", "help_"+tc.cmd+".txt")
		}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v errored: %v", args, err)
		}
		for _, name := range tc.flags {
			if !bytes.Contains(out.Bytes(), []byte(name)) {
				t.Fatalf("%v output missing %s:\n%s", args, name, out.String())
			}
		}

		if *update {
			if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d bytes)", golden, out.Len())
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("read golden: %v (regenerate with -update)", err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			line, gl, wl := firstDiffLine(out.Bytes(), want)
			t.Fatalf("%v output drifted from %s at line %d:\n  golden: %q\n  got:    %q\n"+
				"intentional change? refresh with: go test ./cmd/distscroll-bench -run TestGoldenHelpOutput -update",
				args, golden, line, wl, gl)
		}
	}
}

// firstDiffLine returns the 1-based line number of the first differing line
// plus the two lines themselves.
func firstDiffLine(got, want []byte) (int, string, string) {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	n := len(g)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(g[i], w[i]) {
			return i + 1, string(g[i]), string(w[i])
		}
	}
	return n + 1, "", ""
}
