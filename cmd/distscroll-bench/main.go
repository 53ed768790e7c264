// Command distscroll-bench regenerates every figure and experiment of the
// DistScroll paper reproduction (see DESIGN.md Section 4) and prints the
// resulting charts, tables and metrics. Four subcommands run the platform
// around the reproduction; each takes only its own flags
// (distscroll-bench <command> -h lists them).
//
// Usage:
//
//	distscroll-bench                 # run everything
//	distscroll-bench -run F4,E3      # run selected experiments
//	distscroll-bench -seed 42        # change the master seed
//	distscroll-bench -o report.txt   # also write the report to a file
//	distscroll-bench fleet -devices 64                       # a 64-device session fleet
//	distscroll-bench fleet -devices 64 -metrics              # + Prometheus dump
//	distscroll-bench fleet -devices 64 -metrics-out rep.json # + JSON telemetry
//	distscroll-bench fleet -devices 64 -reliable -loss 0.05  # ARQ on a 5%-loss link
//	distscroll-bench scale -devices 1000,10000,100000        # scale sweep
//	distscroll-bench scale -devices 100000 -ops-listen 127.0.0.1:9100  # live /metrics
//	distscroll-bench scale -devices 100000 -slo-stall 10s  # watchdog on the scale run
//	distscroll-bench scale -devices 100000 -ops-listen 127.0.0.1:9100 -history-windows 300  # /api/history + /dash
//	distscroll-bench scale -devices 100000 -history-out hist.json      # history replay file
//	distscroll-bench serve -listen 127.0.0.1:9200 -shards 2            # networked ingest hub
//	distscroll-bench load -connect 127.0.0.1:9200 -conns 4             # load generator against it
//
// Performance numbers come from the perfbench module (perfbench/run.sh),
// not from this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/experiments"
	"github.com/hcilab/distscroll/internal/fleet"
	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/hubnet"
	"github.com/hcilab/distscroll/internal/ops"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "distscroll-bench:", err)
		os.Exit(1)
	}
}

// commands maps each subcommand to its entry point; without one, the
// arguments belong to the paper report.
var commands = map[string]func(args []string, stdout io.Writer) error{
	"fleet": fleetCmd,
	"scale": scaleCmd,
	"serve": serveCmd,
	"load":  loadCmd,
}

func run(args []string, stdout io.Writer) error {
	cmd := reportCmd
	if len(args) > 0 {
		if c, ok := commands[args[0]]; ok {
			cmd, args = c, args[1:]
		}
	}
	if err := cmd(args, stdout); err != flag.ErrHelp {
		return err
	}
	return nil
}

// newFlagSet returns one command's flag set. Usage and parse errors go to
// stdout so the help text is part of the tool's pinned, testable output.
func newFlagSet(name, about string, stdout io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stdout)
	fs.Usage = func() {
		fmt.Fprintf(stdout, "Usage: %s [flags]\n\n%s\n\nFlags:\n", name, about)
		fs.PrintDefaults()
	}
	return fs
}

// parse parses args into fs and rejects leftover arguments, such as a
// command placed after a flag or a misspelt one.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q; a command (fleet, scale, serve, load) goes before any flag", fs.Arg(0))
	}
	return nil
}

const reportAbout = `Regenerates the paper's figures and experiments and prints the report.

Commands (distscroll-bench <command> -h lists each one's flags):
  fleet   simulate a fleet of full devices against one hub
  scale   sweep struct-of-arrays scale devices for throughput
  serve   run the networked frame-ingest hub
  load    stream generated frames at a serve process`

// reportCmd is the bare command: the paper reproduction report.
func reportCmd(args []string, stdout io.Writer) error {
	fs := newFlagSet("distscroll-bench", reportAbout, stdout)
	runList := fs.String("run", "", "comma-separated experiment ids (default: all)")
	seed := fs.Uint64("seed", 1, "master random seed")
	outPath := fs.String("o", "", "also write the report to this file")
	csvDir := fs.String("csv", "", "write raw study CSVs (trials, conditions) into this directory")
	var prof profOpts
	prof.register(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	return prof.run(func() error {
		return runReport(*runList, *seed, *outPath, *csvDir, stdout)
	})
}

func runReport(runList string, seed uint64, outPath, csvDir string, stdout io.Writer) error {
	if csvDir != "" {
		if err := writeCSVs(csvDir, seed); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote trials.csv and conditions.csv to %s\n", csvDir)
	}

	var runners []experiments.Runner
	if runList == "" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(runList, ",") {
			r, ok := experiments.Find(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (known: F1-F5, E1-E6, A1-A3)", id)
			}
			runners = append(runners, r)
		}
	}

	var report strings.Builder
	fmt.Fprintf(&report, "DistScroll reproduction report (seed %d)\n", seed)
	fmt.Fprintf(&report, "%s\n\n", strings.Repeat("=", 60))
	for _, r := range runners {
		rep, err := r.Run(seed)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		report.WriteString(rep.String())
		report.WriteString("\n")
	}

	return writeReport(stdout, report.String(), outPath)
}

// writeReport prints report and, with outPath set, also writes it there.
func writeReport(stdout io.Writer, report, outPath string) error {
	if _, err := io.WriteString(stdout, report); err != nil {
		return err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(report), 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
	}
	return nil
}

// profOpts carries the profiling flags every command takes.
type profOpts struct {
	cpu, mem, trace string
}

func (p *profOpts) register(fs *flag.FlagSet) {
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a pprof heap profile (post-run) to this file")
	fs.StringVar(&p.trace, "runtime-trace", "", "write a Go runtime execution trace of the run to this file (go tool trace)")
}

// run calls fn under the requested profilers.
func (p profOpts) run(fn func() error) error {
	if p.cpu != "" {
		f, err := os.Create(p.cpu)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if p.trace != "" {
		f, err := os.Create(p.trace)
		if err != nil {
			return fmt.Errorf("runtime-trace: %w", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("runtime-trace: %w", err)
		}
		defer trace.Stop()
	}
	if p.mem != "" {
		defer func() {
			if err := writeFile(p.mem, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintln(os.Stderr, "distscroll-bench: memprofile:", err)
			}
		}()
	}
	return fn()
}

// checkSim validates the link and concurrency flags fleet and scale share.
func checkSim(workers int, loss float64) error {
	if workers < 0 {
		return fmt.Errorf("-workers must not be negative (0 = default), got %d", workers)
	}
	if loss < 0 || loss > 1 {
		return fmt.Errorf("-loss must be in [0,1], got %v", loss)
	}
	return nil
}

// fleetOpts parameterises a fleet invocation.
type fleetOpts struct {
	devices, workers int
	seed             uint64
	outPath          string
	metrics          bool
	metricsOut       string
	reliable         bool
	loss             float64
	burst            float64
	burstLen         int
	ackLoss          float64
	traceOut         string
	flightRec        bool
	traceSLO         time.Duration
	connect          string
	ops              opsOpts
}

func fleetCmd(args []string, stdout io.Writer) error {
	var o fleetOpts
	var prof profOpts
	fs := newFlagSet("distscroll-bench fleet",
		"Simulates a fleet of full devices (sensor, firmware, radio) against one hub\nand prints per-device and aggregate frame accounting.", stdout)
	fs.IntVar(&o.devices, "devices", 0, "number of simulated devices (required)")
	fs.IntVar(&o.workers, "workers", 0, "bound on concurrently simulating devices (0 = one goroutine per device)")
	fs.Uint64Var(&o.seed, "seed", 1, "master random seed")
	fs.StringVar(&o.outPath, "o", "", "also write the report to this file")
	fs.BoolVar(&o.metrics, "metrics", false, "instrument the fleet and append a Prometheus-format metrics dump to the report")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write a JSON telemetry report (per-device counters, latency histograms) to this file")
	fs.BoolVar(&o.reliable, "reliable", false, "wrap every device's RF channel in the ARQ retransmission layer (guaranteed in-order delivery)")
	fs.Float64Var(&o.loss, "loss", rf.DefaultLinkConfig().LossProb, "per-frame loss probability of each device's link")
	fs.Float64Var(&o.burst, "burst", 0, "per-frame probability of a burst dropping several consecutive frames")
	fs.IntVar(&o.burstLen, "burst-len", 0, "frames dropped per burst (0 = model default)")
	fs.Float64Var(&o.ackLoss, "ack-loss", 0, "loss probability of the reliable-mode ack back-channel")
	fs.StringVar(&o.traceOut, "trace-out", "", "record frame-level causal spans and write a Perfetto/Chrome trace JSON to this file (open in ui.perfetto.dev)")
	fs.BoolVar(&o.flightRec, "flight-recorder", false, "bounded per-device trace rings: anomalies (abandoned frames, seq gaps, SLO breaches) dump the last events to stderr")
	fs.DurationVar(&o.traceSLO, "trace-slo", 0, "end-to-end latency SLO; a frame exceeding it raises a flight-recorder anomaly (0 = off)")
	fs.StringVar(&o.connect, "connect", "", "forward every device's frames to a serve process at this address instead of the in-process hub")
	o.ops.register(fs)
	prof.register(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	switch {
	case o.devices < 1:
		return fmt.Errorf("-devices must be at least 1, got %d", o.devices)
	case o.traceSLO < 0:
		return fmt.Errorf("-trace-slo must not be negative, got %v", o.traceSLO)
	case o.burstLen < 0:
		return fmt.Errorf("-burst-len must not be negative (0 = model default), got %d", o.burstLen)
	case o.burstLen > 0 && o.burst <= 0:
		return fmt.Errorf("-burst-len sets the length of -burst bursts; set -burst > 0 as well")
	case o.ackLoss > 0 && !o.reliable:
		return fmt.Errorf("-ack-loss drops acks on the -reliable back-channel; add -reliable")
	case o.connect != "" && o.reliable:
		return fmt.Errorf("-reliable needs the in-process ack loop; acks cannot cross the -connect byte stream")
	}
	if err := checkSim(o.workers, o.loss); err != nil {
		return err
	}
	if err := o.ops.check(fs); err != nil {
		return err
	}
	return prof.run(func() error { return runFleet(o, stdout) })
}

// opsOpts carries the live-ops-plane flags (-ops-listen, -slo-*,
// -history-*) of the fleet, scale and serve commands.
type opsOpts struct {
	listen       string
	p99          float64
	minFPS       float64
	stall        time.Duration
	history      bool
	histWindows  int
	histInterval time.Duration
	histOut      string

	// latencyMetric is the histogram the -slo-p99 rule reads; "" means
	// the watchdog's default, hub_e2e_latency_ms. Set by the command,
	// not by a flag.
	latencyMetric string
}

func (o *opsOpts) register(fs *flag.FlagSet) {
	fs.StringVar(&o.listen, "ops-listen", "", "serve the live ops plane (/metrics, /vars, /healthz, /debug/pprof) on this address during the run (e.g. 127.0.0.1:9100; port 0 picks one)")
	fs.Float64Var(&o.p99, "slo-p99", 0, "SLO watchdog: breach when the windowed e2e latency p99 exceeds this many milliseconds (0 = off)")
	fs.Float64Var(&o.minFPS, "slo-min-fps", 0, "SLO watchdog: breach when decoded frames per second drop below this floor (0 = off)")
	fs.DurationVar(&o.stall, "slo-stall", 0, "SLO watchdog: breach when the run's progress clock stops advancing for this long (0 = off)")
	fs.IntVar(&o.histWindows, "history-windows", history.DefaultWindows, "retain a rolling telemetry history of this many sampling windows; served at /api/history and the /dash dashboard with -ops-listen, attached to SLO breaches as pre/post forensics")
	fs.DurationVar(&o.histInterval, "history-interval", time.Second, "telemetry history sampling interval; the SLO watchdog evaluates every window")
	fs.StringVar(&o.histOut, "history-out", "", "write the retained telemetry history as JSON to this file when the run ends")
}

// check validates the parsed ops flags. Giving any -history-* flag turns
// the history store on.
func (o *opsOpts) check(fs *flag.FlagSet) error {
	fs.Visit(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "history-") {
			o.history = true
		}
	})
	switch {
	case o.p99 < 0 || o.minFPS < 0 || o.stall < 0:
		return fmt.Errorf("-slo-p99, -slo-min-fps and -slo-stall must not be negative (0 = off)")
	case o.histWindows < 1:
		return fmt.Errorf("-history-windows must be at least 1, got %d", o.histWindows)
	case o.histInterval <= 0:
		return fmt.Errorf("-history-interval must be positive, got %v", o.histInterval)
	}
	return nil
}

// sloRules reports whether any SLO watchdog rule was requested.
func (o opsOpts) sloRules() bool {
	return o.p99 > 0 || o.minFPS > 0 || o.stall > 0
}

// enabled reports whether any ops-plane feature was requested.
func (o opsOpts) enabled() bool {
	return o.listen != "" || o.sloRules() || o.history
}

// opsPlane bundles the running server, watchdog and history sampler of one
// invocation.
type opsPlane struct {
	srv     *ops.Server
	wd      *ops.Watchdog
	hist    *history.Store
	histOut string
}

// startOpsPlane starts the history sampler, the watchdog and (if
// requested) the HTTP server. An -slo-* rule implies the history sampler:
// the watchdog evaluates its windows. stallClock names the series whose
// advancement proves the run is alive: sim_virtual_seconds on the scale
// path, hub_frames_decoded_total for the session fleet. lookup, when not
// nil, serves the /api/device drill-down.
func startOpsPlane(o opsOpts, reg *telemetry.Registry, tracer *tracing.Tracer, stallClock string,
	lookup func(uint32) (*core.Session, bool), stdout io.Writer) (*opsPlane, error) {
	var hist *history.Store
	if o.history || o.sloRules() {
		var err error
		hist, err = history.Start(history.Config{
			Registry: reg,
			Windows:  o.histWindows,
			Interval: o.histInterval,
		})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "history: sampling telemetry every %v, retaining %d windows\n",
			hist.Interval(), hist.Windows())
	}
	if tracer == nil && o.sloRules() {
		// Breach forensics dump through a flight recorder; a run without
		// its own tracer gets a small bounded one so the pre/post table
		// still lands on stderr.
		tracer = tracing.New(tracing.Config{Bounded: true, Capacity: 64, DumpTo: os.Stderr})
	}
	wd := ops.StartWatchdog(ops.WatchdogConfig{
		History:         hist,
		LatencyMetric:   o.latencyMetric,
		LatencyMaxP99Ms: o.p99,
		StallGauge:      stallClock,
		StallAfter:      o.stall,
		MinRate:         minRateRules(o.minFPS),
		Tracer:          tracer,
		OnBreach: func(b ops.Breach) {
			fmt.Fprintf(os.Stderr, "slo watchdog: %s\n", b)
		},
	})
	p := &opsPlane{wd: wd, hist: hist, histOut: o.histOut}
	if o.listen != "" {
		srv, err := ops.Serve(o.listen, ops.Config{Registry: reg, Watchdog: wd, History: hist, Lookup: lookup})
		if err != nil {
			wd.Stop()
			hist.Stop()
			return nil, err
		}
		p.srv = srv
		endpoints := "metrics, vars, healthz, debug/pprof"
		if hist != nil {
			endpoints += ", api/history, dash"
		}
		if lookup != nil {
			endpoints += ", api/device"
		}
		fmt.Fprintf(stdout, "ops plane listening on %s (%s)\n", srv.URL(), endpoints)
	}
	return p, nil
}

func minRateRules(minFPS float64) map[string]float64 {
	if minFPS <= 0 {
		return nil
	}
	return map[string]float64{telemetry.MetricHubDecoded: minFPS}
}

// close stops the watchdog before the server so /healthz never serves a
// half-stopped state, stops the history store (which records one final
// window, so the end-of-run counters make the history, and flushes
// pending breach forensics), and reports the verdict.
func (p *opsPlane) close(report io.Writer) {
	if p == nil {
		return
	}
	p.wd.Stop()
	p.hist.Stop()
	p.srv.Close()
	if breaches := p.wd.Breaches(); len(breaches) > 0 {
		fmt.Fprintf(report, "slo watchdog: %d breach(es); first: %s\n", len(breaches), breaches[0])
	}
	if p.hist != nil && p.histOut != "" {
		path := p.histOut
		p.histOut = "" // close runs twice (explicit + deferred); write once
		// The file holds the full retained history as the /api/history
		// JSON document.
		err := writeFile(path, func(w io.Writer) error { return p.hist.WriteJSON(w, history.Query{}) })
		if err != nil {
			fmt.Fprintf(os.Stderr, "distscroll-bench: history-out: %v\n", err)
		} else {
			fmt.Fprintf(report, "wrote telemetry history (%d windows captured) to %s\n",
				p.hist.Captured(), path)
		}
	}
}

// writeFile creates path, fills it through write and closes it, returning
// the first error of the three.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON writes v to path as one indented JSON document.
func writeJSON(path string, v any) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// runFleet simulates n devices concurrently against one hub and prints the
// per-device and aggregate accounting, optionally with full telemetry.
func runFleet(o fleetOpts, stdout io.Writer) error {
	cfg := fleet.Config{Devices: o.devices, Seed: o.seed, Workers: o.workers, Reliable: o.reliable, Core: core.DefaultConfig()}
	cfg.Core.Link.LossProb = o.loss
	cfg.Core.Link.BurstLossProb = o.burst
	cfg.Core.Link.BurstLossLen = o.burstLen
	cfg.Core.Link.AckLossProb = o.ackLoss
	var tracer *tracing.Tracer
	if o.traceOut != "" || o.flightRec || o.traceSLO > 0 {
		tcfg := tracing.Config{SLO: o.traceSLO}
		if o.flightRec || o.traceSLO > 0 {
			// Anomalies (abandoned frames, seq gaps, SLO breaches) dump
			// their trailing events to stderr.
			tcfg.DumpTo = os.Stderr
		}
		if o.flightRec {
			// Flight-recorder mode: small bounded rings so the trace
			// footprint stays cache-resident even for large fleets.
			// Without it, retain everything for a complete export.
			tcfg.Bounded = true
			tcfg.Capacity = 512
		}
		tracer = tracing.New(tcfg)
		cfg.Tracing = tracer
	}
	var reg *telemetry.Registry
	if o.metrics || o.metricsOut != "" || o.ops.enabled() {
		reg = telemetry.New()
		cfg.Metrics = reg
	}
	if o.metrics || o.metricsOut != "" {
		// Heartbeat progress on stderr while the run is in flight.
		cfg.ReportEvery = 2 * time.Second
		cfg.OnReport = func(s *telemetry.Snapshot) {
			fmt.Fprintf(os.Stderr, "fleet: %d frames decoded, %d sent\n",
				s.Counters[telemetry.MetricHubDecoded], s.Counters[telemetry.MetricRFSent])
		}
	}
	var opsSummary strings.Builder
	var plane *opsPlane
	if o.ops.enabled() {
		// The session fleet has no virtual-time gauge; decoded frames are
		// its liveness clock. An in-process hub is built here, as fleet.New
		// would build it, so /api/device can read its sessions.
		var lookup func(uint32) (*core.Session, bool)
		if o.connect == "" {
			hub := core.NewHubWithMetrics(true, reg)
			cfg.Hub = hub
			lookup = hub.Lookup
		}
		var err error
		plane, err = startOpsPlane(o.ops, reg, tracer, telemetry.MetricHubDecoded, lookup, stdout)
		if err != nil {
			return err
		}
		// Repeated close is safe; the deferred one covers error returns.
		defer plane.close(io.Discard)
	}
	var remote *hubnet.Remote
	if o.connect != "" {
		conn, err := hubnet.Dial(o.connect)
		if err != nil {
			return fmt.Errorf("connect %s: %w", o.connect, err)
		}
		defer conn.Close()
		remote = hubnet.NewRemote(conn)
		cfg.Hub = remote
		fmt.Fprintf(stdout, "hubnet: forwarding frames to %s\n", o.connect)
	}
	r, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	results, err := r.RunAll()
	if err != nil {
		return err
	}
	if remote != nil {
		if err := remote.Err(); err != nil {
			return fmt.Errorf("hubnet stream to %s: %w", o.connect, err)
		}
	}
	if plane != nil {
		plane.close(&opsSummary)
	}

	var report strings.Builder
	fmt.Fprintf(&report, "DistScroll fleet report (%d devices, seed %d)\n", o.devices, o.seed)
	fmt.Fprintf(&report, "%s\n", strings.Repeat("=", 76))
	fmt.Fprintf(&report, "%6s %8s %10s %8s %8s %8s %6s %6s\n",
		"device", "sent", "delivered", "lost", "events", "missed", "dup", "reord")
	for _, res := range results {
		fmt.Fprintf(&report, "%6d %8d %10d %8d %8d %8d %6d %6d\n",
			res.Device, res.Link.Sent, res.Link.Delivered, res.Link.Lost,
			res.Host.Events, res.Host.MissedSeq, res.Host.Duplicates, res.Host.Reordered)
	}
	tot := r.Total(results)
	fmt.Fprintf(&report, "%s\n", strings.Repeat("-", 76))
	fmt.Fprintf(&report, "frames sent %d, delivered %d, lost %d, corrupted %d, events %d, seq gaps %d\n",
		tot.Sent, tot.Delivered, tot.Lost, tot.Corrupted, tot.Events, tot.MissedSeq)
	if o.reliable {
		fmt.Fprintf(&report, "reliable: retransmits %d, timeouts %d, queue drops %d, acks sent %d (lost %d), stale %d, resyncs %d\n",
			tot.Retransmits, tot.Timeouts, tot.QueueDrops, tot.AcksSent, tot.AcksLost, tot.Stale, tot.Resyncs)
	}
	fmt.Fprintf(&report, "virtual time %.1f s, decode throughput %.1f frames/s\n",
		tot.VirtualSeconds, tot.FramesPerSecond)
	if remote != nil {
		fmt.Fprintf(&report, "frames forwarded to %s; host-side accounting (events, seq gaps) lives in the serving process\n", o.connect)
	}
	report.WriteString(opsSummary.String())

	var snap *telemetry.Snapshot
	if reg != nil {
		snap = reg.Snapshot()
	}
	if o.metrics {
		fmt.Fprintf(&report, "\nTelemetry (Prometheus exposition)\n%s\n", strings.Repeat("-", 76))
		if lat, ok := snap.Histogram(telemetry.MetricHubE2ELatency); ok {
			fmt.Fprintf(&report, "# e2e latency: p50=%.2fms p90=%.2fms p99=%.2fms over %d frames\n",
				lat.P50, lat.P90, lat.P99, lat.Count)
		}
		if err := snap.WritePrometheus(&report); err != nil {
			return err
		}
	}
	if o.metricsOut != "" {
		if err := writeJSON(o.metricsOut, newTelemetryReport(o.seed, results, tot, snap)); err != nil {
			return fmt.Errorf("telemetry report: %w", err)
		}
		fmt.Fprintf(&report, "wrote telemetry report to %s\n", o.metricsOut)
	}
	if o.traceOut != "" {
		meta := map[string]any{
			"tool":    "distscroll-bench",
			"devices": o.devices,
			"seed":    o.seed,
			"decoded": tot.Decoded,
		}
		if err := writeFile(o.traceOut, func(w io.Writer) error { return tracer.WritePerfetto(w, meta) }); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Fprintf(&report, "wrote Perfetto trace to %s (open in ui.perfetto.dev)\n", o.traceOut)
	}
	if tracer != nil && tracer.Dumps() > 0 {
		fmt.Fprintf(&report, "flight recorder: %d anomaly dump(s) written to stderr\n", tracer.Dumps())
	}

	return writeReport(stdout, report.String(), o.outPath)
}

// deviceCounters is one device's frame accounting in the JSON report.
type deviceCounters struct {
	Device     uint32 `json:"device"`
	Sent       uint64 `json:"sent"`
	Delivered  uint64 `json:"delivered"`
	Lost       uint64 `json:"lost"`
	Corrupted  uint64 `json:"corrupted"`
	Events     uint64 `json:"events"`
	MissedSeq  uint64 `json:"missedSeq"`
	Duplicates uint64 `json:"duplicates"`
	Reordered  uint64 `json:"reordered"`
	// Reliable-delivery counters, zero without -reliable.
	Retransmits uint64 `json:"retransmits,omitempty"`
	AcksSent    uint64 `json:"acksSent,omitempty"`
	AcksLost    uint64 `json:"acksLost,omitempty"`
}

// telemetryReport is the -metrics-out document: per-device counters, fleet
// totals and the full metrics snapshot with latency histograms.
type telemetryReport struct {
	Devices   int                 `json:"devices"`
	Seed      uint64              `json:"seed"`
	PerDevice []deviceCounters    `json:"perDevice"`
	Totals    fleet.Totals        `json:"totals"`
	Metrics   *telemetry.Snapshot `json:"metrics"`
}

func newTelemetryReport(seed uint64, results []fleet.Result, tot fleet.Totals, snap *telemetry.Snapshot) telemetryReport {
	rep := telemetryReport{
		Devices: len(results),
		Seed:    seed,
		Totals:  tot,
		Metrics: snap,
	}
	for _, res := range results {
		rep.PerDevice = append(rep.PerDevice, deviceCounters{
			Device:      res.Device,
			Sent:        res.Link.Sent,
			Delivered:   res.Link.Delivered,
			Lost:        res.Link.Lost,
			Corrupted:   res.Link.Corrupted,
			Events:      res.Host.Events,
			MissedSeq:   res.Host.MissedSeq,
			Duplicates:  res.Host.Duplicates,
			Reordered:   res.Host.Reordered,
			Retransmits: res.ARQ.Retransmits,
			AcksSent:    res.Acks.AcksSent,
			AcksLost:    res.Acks.AcksLost,
		})
	}
	return rep
}
