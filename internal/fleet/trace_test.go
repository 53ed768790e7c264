package fleet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/tracing"
)

// TestFleetTracingCompleteChains runs a lossy reliable fleet with tracing
// and checks the core causal-trace contracts:
//
//  1. every decoded frame left exactly one hub.demux span event,
//  2. every admitted frame's chain is complete — its firmware.sample birth
//     event exists in the same recorder,
//  3. the Perfetto export is valid JSON whose host-side slice count equals
//     the demuxed-frame count.
func TestFleetTracingCompleteChains(t *testing.T) {
	tracer := tracing.New(tracing.Config{Capacity: 1 << 15})
	cfg := Config{Devices: 8, Seed: 21, Reliable: true, Tracing: tracer,
		Core: core.DefaultConfig()}
	cfg.Core.Link.LossProb = 0.05
	cfg.Core.Link.BurstLossProb = 0.01
	cfg.Core.Link.BurstLossLen = 3
	r, results := runFleet(t, cfg)

	totalDecoded := uint64(0)
	for _, res := range results {
		totalDecoded += res.Host.Decoded
	}

	recs := tracer.Recorders()
	if len(recs) != 8 {
		t.Fatalf("recorders = %d, want 8 (one per device)", len(recs))
	}
	var demux uint64
	for i, rec := range recs {
		samples := map[uint16]bool{}
		var devDemux, admits int
		for _, e := range rec.Events() {
			switch e.Hop() {
			case tracing.HopFirmwareSample:
				samples[e.Seq()] = true
			case tracing.HopHubDemux:
				devDemux++
				out, _ := tracing.UnpackDemux(e.Arg2())
				if out == tracing.OutcomeAdmit {
					admits++
					if !samples[e.Seq()] {
						t.Errorf("device %d: admitted seq %d has no firmware.sample birth event",
							r.ID(i), e.Seq())
					}
				}
			}
		}
		if devDemux == 0 || admits == 0 {
			t.Fatalf("device %d: demux=%d admits=%d — tracing not threaded", r.ID(i), devDemux, admits)
		}
		demux += uint64(devDemux)
	}
	if demux != totalDecoded {
		t.Fatalf("hub.demux span events = %d, decoded frames = %d — every decoded frame must trace exactly once",
			demux, totalDecoded)
	}

	var buf bytes.Buffer
	if err := tracer.WritePerfetto(&buf, map[string]any{"decodedFrames": totalDecoded}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Perfetto export is not valid JSON: %v", err)
	}
	slices := uint64(0)
	for _, e := range doc.TraceEvents {
		if ph, _ := e["ph"].(string); ph == "X" {
			slices++
		}
	}
	if slices != demux {
		t.Fatalf("Perfetto X slices = %d, demux events = %d", slices, demux)
	}
}

// TestFleetTracingDeterministic checks tracing does not perturb the
// simulation: the same seed with and without a tracer produces identical
// fleet results.
func TestFleetTracingDeterministic(t *testing.T) {
	base := Config{Devices: 4, Seed: 5, Reliable: true, Core: core.DefaultConfig()}
	base.Core.Link.LossProb = 0.05
	_, plain := runFleet(t, base)

	traced := base
	traced.Tracing = tracing.New(tracing.Config{Capacity: 1 << 14})
	_, withTrace := runFleet(t, traced)

	for i := range plain {
		if plain[i].Host != withTrace[i].Host || plain[i].Link != withTrace[i].Link {
			t.Fatalf("device %d diverged under tracing:\nplain %+v\ntraced %+v",
				plain[i].Device, plain[i], withTrace[i])
		}
	}
}

// TestFleetRetryExhaustionDump forces retry-budget exhaustion on a near-
// dead channel and checks the flight recorder's automatic dump names the
// abandoned seq range — the end-to-end post-mortem acceptance path.
func TestFleetRetryExhaustionDump(t *testing.T) {
	var dump strings.Builder
	tracer := tracing.New(tracing.Config{Capacity: 512, Bounded: true, DumpTo: &dump})
	cfg := Config{Devices: 2, Seed: 3, Reliable: true, Tracing: tracer,
		ARQ:  rf.ARQConfig{MaxRetries: 2, RTO: 20 * time.Millisecond, MaxRTO: 50 * time.Millisecond},
		Core: core.DefaultConfig()}
	cfg.Core.Link.LossProb = 0.9
	_, results := runFleet(t, cfg)

	drops := uint64(0)
	for _, res := range results {
		drops += res.ARQ.RetryDrops
	}
	if drops == 0 {
		t.Fatal("90% loss with MaxRetries=2 produced no retry drops")
	}
	out := dump.String()
	if !strings.Contains(out, "retry budget exhausted: seqs ") ||
		!strings.Contains(out, "abandoned") {
		t.Fatalf("flight-recorder dump does not name the abandoned seq range:\n%.2000s", out)
	}
}
