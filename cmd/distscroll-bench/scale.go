package main

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/hcilab/distscroll/internal/fleet"
	"github.com/hcilab/distscroll/internal/hubnet"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// This file implements the scale command: the devices-vs-throughput sweep
// over the struct-of-arrays fleet path (fleet.RunScale).

// scaleSweepOpts parameterises a scale run, including the live ops plane
// and the telemetry outputs.
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

func scaleCmd(args []string, stdout io.Writer) error {
	var o scaleSweepOpts
	var prof profOpts
	fs := newFlagSet("distscroll-bench scale",
		"Simulates struct-of-arrays scale devices on scheduler stripes and prints\nthe devices-vs-throughput table, one row per device count.", stdout)
	fs.Func("devices", "comma-separated device `counts`: one point (100000) or a sweep (1000,10000,100000); required", func(s string) (err error) {
		o.sweep, err = parseDeviceList(s)
		return err
	})
	fs.DurationVar(&o.dur, "duration", 10*time.Second, "virtual time each device simulates")
	fs.IntVar(&o.workers, "workers", 0, "scheduler stripes, one goroutine each (0 = GOMAXPROCS)")
	fs.Uint64Var(&o.seed, "seed", 1, "master random seed")
	fs.Float64Var(&o.loss, "loss", defaultScaleLoss, "modelled per-frame loss probability")
	fs.BoolVar(&o.metrics, "metrics", false, "append a Prometheus-format dump of the run's merged telemetry")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the run's throughput summary and merged telemetry as JSON to this file")
	fs.StringVar(&o.connect, "connect", "", "stream every emitted frame to a serve process at this address, one connection per worker")
	o.ops.register(fs)
	prof.register(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	switch {
	case len(o.sweep) == 0:
		return fmt.Errorf("-devices is required")
	case o.dur <= 0:
		return fmt.Errorf("-duration must be positive, got %v", o.dur)
	case (o.metrics || o.metricsOut != "") && len(o.sweep) > 1:
		return fmt.Errorf("-metrics/-metrics-out merge one run's telemetry; use a single-point scale run (-devices N), not a %d-point sweep", len(o.sweep))
	}
	if err := checkSim(o.workers, o.loss); err != nil {
		return err
	}
	if err := o.ops.check(fs); err != nil {
		return err
	}
	// RunScale clamps an over-provisioned worker pool to the device count;
	// say so rather than run fewer workers than asked for silently.
	if least := slices.Min(o.sweep); o.workers > least {
		fmt.Fprintf(stdout, "warning: -workers %d exceeds -devices %d; running %d workers\n", o.workers, least, least)
	}
	return prof.run(func() error { return runScaleSweep(o, stdout) })
}

// parseDeviceList parses "1000,10000,..." into device counts.
func parseDeviceList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("%q is not a device count", part)
		}
		if n < 1 {
			return nil, fmt.Errorf("device counts must be at least 1, got %d", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// defaultScaleLoss is the modelled per-frame loss when -loss is not given.
const defaultScaleLoss = 0.01

// runScalePoint simulates one device count on the scale path. reg, when
// non-nil, receives the live striped telemetry; with o.connect set, every
// emitted frame streams to a hubnet server over one TCP connection per
// worker, flushed once per stripe sweep. Slab slot s maps to wire device
// id s+1, matching the session fleet's numbering.
func runScalePoint(o scaleSweepOpts, devices int, reg *telemetry.Registry) (fleet.ScaleResult, error) {
	cfg := fleet.ScaleConfig{
		Devices:  devices,
		Seed:     o.seed,
		Workers:  o.workers,
		Duration: o.dur,
		LossProb: o.loss,
		Metrics:  reg,
	}
	if o.connect != "" {
		cfg.Emit = func(worker, lo, hi int) (*fleet.StripeSink, error) {
			conn, err := hubnet.Dial(o.connect)
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

// runScaleSweep prints the devices-vs-throughput table. Single-point runs
// may attach telemetry (-metrics/-metrics-out); any run may attach the ops
// plane (-ops-listen, -slo-*, -history-*).
func runScaleSweep(o scaleSweepOpts, stdout io.Writer) error {
	var reg *telemetry.Registry
	if o.metrics || o.metricsOut != "" || o.ops.enabled() {
		reg = telemetry.New()
	}
	var opsSummary strings.Builder
	var plane *opsPlane
	if o.ops.enabled() {
		var err error
		plane, err = startOpsPlane(o.ops, reg, nil, telemetry.MetricSimVirtualSeconds, nil, stdout)
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
		res, err := runScalePoint(o, n, reg)
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
		if err := writeJSON(o.metricsOut, scaleTelemetryReport{Seed: o.seed, Result: last, Metrics: snap}); err != nil {
			return fmt.Errorf("telemetry report: %w", err)
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
