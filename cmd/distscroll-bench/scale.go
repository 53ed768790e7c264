package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/hcilab/distscroll/internal/fleet"
	"github.com/hcilab/distscroll/internal/hubnet"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// This file implements -devices / -scale: the devices-vs-throughput sweep
// over the struct-of-arrays fleet path (fleet.RunScale).

// parseScaleList parses "-scale 1000,10000,..." into device counts.
func parseScaleList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-scale: %q is not a device count", part)
		}
		if n < 1 {
			return nil, fmt.Errorf("-scale: device counts must be at least 1, got %d", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// defaultScaleLoss is the modelled per-frame loss when -loss is not given.
const defaultScaleLoss = 0.01

// runScalePoint simulates one device count on the scale path. A negative
// loss takes the stock model loss; reg, when non-nil, receives the live
// striped telemetry; connect, when non-empty, streams every emitted frame
// to a hubnet server over one TCP connection per worker, flushed once per
// stripe sweep. Slab slot s maps to wire device id s+1, matching the
// session fleet's numbering.
func runScalePoint(devices int, seed uint64, workers int, dur time.Duration, loss float64, reg *telemetry.Registry, connect string) (fleet.ScaleResult, error) {
	if loss < 0 {
		loss = defaultScaleLoss
	}
	cfg := fleet.ScaleConfig{
		Devices:  devices,
		Seed:     seed,
		Workers:  workers,
		Duration: dur,
		LossProb: loss,
		Metrics:  reg,
	}
	if connect != "" {
		cfg.Emit = func(worker, lo, hi int) (*fleet.StripeSink, error) {
			conn, err := hubnet.Dial(connect)
			if err != nil {
				return nil, err
			}
			sender := hubnet.NewFrameSender(conn, 1)
			return &fleet.StripeSink{
				Emit:  sender.Emit,
				Flush: sender.Flush,
				Close: func() error {
					err := sender.Flush()
					if cerr := conn.Close(); err == nil {
						err = cerr
					}
					return err
				},
			}, nil
		}
	}
	return fleet.RunScale(cfg)
}

// scaleSweepOpts parameterises -devices/-scale runs, including the live
// ops plane and the telemetry outputs that used to be fleet-only.
type scaleSweepOpts struct {
	sweep      []int
	seed       uint64
	workers    int
	dur        time.Duration
	loss       float64
	metrics    bool
	metricsOut string
	connect    string
	ops        opsOpts
}

// runScaleSweep prints the devices-vs-throughput table for -devices/-scale.
// Single-point runs may attach telemetry (-metrics/-metrics-out) and the
// ops plane (-ops-listen, -slo-*); run() rejects the unsupported combos.
func runScaleSweep(o scaleSweepOpts, stdout io.Writer) error {
	var reg *telemetry.Registry
	if o.metrics || o.metricsOut != "" || o.ops.enabled() {
		reg = telemetry.New()
	}
	var opsSummary strings.Builder
	var plane *opsPlane
	if o.ops.enabled() {
		var err error
		plane, err = startOpsPlane(o.ops, reg, nil, telemetry.MetricSimVirtualSeconds, stdout)
		if err != nil {
			return err
		}
		defer plane.close(io.Discard)
	}

	fmt.Fprintf(stdout, "DistScroll scale sweep (seed %d, %s virtual per device)\n", o.seed, o.dur)
	fmt.Fprintf(stdout, "%s\n", strings.Repeat("=", 76))
	fmt.Fprintf(stdout, "%9s %8s %12s %12s %14s %12s\n",
		"devices", "workers", "wall_s", "ticks/s", "rt_factor", "frames")
	if o.connect != "" {
		fmt.Fprintf(stdout, "hubnet: streaming frames to %s (one connection per worker)\n", o.connect)
	}
	var last fleet.ScaleResult
	for _, n := range o.sweep {
		res, err := runScalePoint(n, o.seed, o.workers, o.dur, o.loss, reg, o.connect)
		if err != nil {
			return err
		}
		last = res
		fmt.Fprintf(stdout, "%9d %8d %12.3f %12.0f %14.0f %12d\n",
			res.Devices, res.Workers, res.WallSeconds, res.TicksPerSecond,
			res.RealTimeFactor, res.Frames)
	}
	if plane != nil {
		plane.close(&opsSummary)
		if _, err := io.WriteString(stdout, opsSummary.String()); err != nil {
			return err
		}
	}

	if reg == nil {
		return nil
	}
	snap := reg.Snapshot()
	if o.metrics {
		fmt.Fprintf(stdout, "\nTelemetry (Prometheus exposition)\n%s\n", strings.Repeat("-", 76))
		if lat, ok := snap.Histogram(telemetry.MetricHubE2ELatency); ok {
			fmt.Fprintf(stdout, "# e2e latency: p50=%.2fms p90=%.2fms p99=%.2fms over %d frames\n",
				lat.P50, lat.P90, lat.P99, lat.Count)
		}
		if err := snap.WritePrometheus(stdout); err != nil {
			return err
		}
	}
	if o.metricsOut != "" {
		if err := writeScaleTelemetryJSON(o.metricsOut, o.seed, last, snap); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote telemetry report to %s\n", o.metricsOut)
	}
	return nil
}

// scaleTelemetryReport is the scale-mode -metrics-out document: the run's
// throughput summary plus the merged metrics snapshot.
type scaleTelemetryReport struct {
	Seed    uint64              `json:"seed"`
	Result  fleet.ScaleResult   `json:"result"`
	Metrics *telemetry.Snapshot `json:"metrics"`
}

func writeScaleTelemetryJSON(path string, seed uint64, res fleet.ScaleResult, snap *telemetry.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry report: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(scaleTelemetryReport{Seed: seed, Result: res, Metrics: snap}); err != nil {
		return fmt.Errorf("telemetry report: %w", err)
	}
	return nil
}
