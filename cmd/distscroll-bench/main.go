// Command distscroll-bench regenerates every figure and experiment of the
// DistScroll paper reproduction (see DESIGN.md Section 4) and prints the
// resulting charts, tables and metrics.
//
// Usage:
//
//	distscroll-bench                 # run everything
//	distscroll-bench -run F4,E3      # run selected experiments
//	distscroll-bench -seed 42        # change the master seed
//	distscroll-bench -o report.txt   # also write the report to a file
//	distscroll-bench -fleet 64       # simulate a 64-device fleet instead
//	distscroll-bench -fleet 64 -metrics              # + Prometheus dump
//	distscroll-bench -fleet 64 -metrics-out rep.json # + JSON telemetry
//	distscroll-bench -fleet 64 -reliable -loss 0.05  # ARQ on a 5%-loss link
//	distscroll-bench -devices 100000 -ops-listen 127.0.0.1:9100  # live /metrics
//	distscroll-bench -devices 100000 -slo-stall 10s  # watchdog on the scale run
//	distscroll-bench -devices 100000 -ops-listen 127.0.0.1:9100 -history-windows 300  # /api/history + /dash
//	distscroll-bench -devices 100000 -history-out hist.json      # history replay file
//	distscroll-bench -serve 127.0.0.1:9200 -hub-shards 2         # networked ingest hub
//	distscroll-bench -saturate -connect 127.0.0.1:9200 -conns 4  # load generator against it
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
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "distscroll-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("distscroll-bench", flag.ContinueOnError)
	// Usage and parse errors go to stdout so the help text is part of the
	// tool's pinned, testable output.
	fs.SetOutput(stdout)
	var (
		runList   = fs.String("run", "", "comma-separated experiment ids (default: all)")
		seed      = fs.Uint64("seed", 1, "master random seed")
		outPath   = fs.String("o", "", "also write the report to this file")
		csvDir    = fs.String("csv", "", "write raw study CSVs (trials, conditions) into this directory")
		fleetN    = fs.Int("fleet", 0, "simulate a fleet of N devices against one hub instead of the experiments")
		fleetWrk  = fs.Int("workers", 0, "bound on concurrently simulating fleet devices (0 = one goroutine per device)")
		devicesN  = fs.Int("devices", 0, "simulate N struct-of-arrays scale devices (timing-wheel stripes) and print the throughput summary")
		scaleList = fs.String("scale", "", "comma-separated device counts for a scale sweep (e.g. 1000,10000,100000)")
		scaleDur  = fs.Duration("scale-duration", 10*time.Second, "virtual time each scale device simulates")
		metrics   = fs.Bool("metrics", false, "instrument the fleet and append a Prometheus-format metrics dump to the report")
		metOut    = fs.String("metrics-out", "", "write a JSON telemetry report (per-device counters, latency histograms) to this file")
		reliable  = fs.Bool("reliable", false, "wrap every fleet device's RF channel in the ARQ retransmission layer (guaranteed in-order delivery)")
		loss      = fs.Float64("loss", -1, "override the fleet link loss probability (default: the model's stock loss)")
		burst     = fs.Float64("burst", 0, "per-frame probability of a burst dropping several consecutive frames")
		burstLen  = fs.Int("burst-len", 0, "frames dropped per burst (0 = model default)")
		ackLoss   = fs.Float64("ack-loss", 0, "loss probability of the reliable-mode ack back-channel")
		traceOut  = fs.String("trace-out", "", "record frame-level causal spans and write a Perfetto/Chrome trace JSON to this file (open in ui.perfetto.dev)")
		flightRec = fs.Bool("flight-recorder", false, "bounded per-device trace rings: anomalies (abandoned frames, seq gaps, SLO breaches) dump the last events to stderr")
		traceSLO  = fs.Duration("trace-slo", 0, "end-to-end latency SLO; a frame exceeding it raises a flight-recorder anomaly (0 = off)")
		opsListen = fs.String("ops-listen", "", "serve the live ops plane (/metrics, /vars, /healthz, /debug/pprof) on this address during a -fleet or scale run (e.g. 127.0.0.1:9100; port 0 picks one)")
		sloP99    = fs.Float64("slo-p99", 0, "SLO watchdog: breach when the windowed e2e latency p99 exceeds this many milliseconds (0 = off)")
		sloMinFPS = fs.Float64("slo-min-fps", 0, "SLO watchdog: breach when decoded frames per second drop below this floor (0 = off)")
		sloStall  = fs.Duration("slo-stall", 0, "SLO watchdog: breach when the run's progress clock stops advancing for this long (0 = off)")
		sloEvery  = fs.Duration("slo-interval", time.Second, "SLO watchdog evaluation interval")
		histWin   = fs.Int("history-windows", 0, "retain a rolling telemetry history of this many sampling windows (0 = default 120); served at /api/history and the /dash dashboard with -ops-listen, attached to SLO breaches as pre/post forensics")
		histEvery = fs.Duration("history-interval", time.Second, "telemetry history sampling interval")
		histOut   = fs.String("history-out", "", "write the retained telemetry history as JSON to this file when the run ends (implies history)")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile (post-run) to this file")
		rtTrace   = fs.String("runtime-trace", "", "write a Go runtime execution trace of the run to this file (go tool trace)")
		serveAddr = fs.String("serve", "", "run the networked hub: accept frame-ingest connections on this address (e.g. 127.0.0.1:9200; port 0 picks one) instead of simulating")
		serveFor  = fs.Duration("serve-for", 0, "with -serve: stop after this long (0 = serve until SIGINT/SIGTERM)")
		hubShards = fs.Int("hub-shards", 0, "with -serve: number of hub shards; frames route by device id modulo the shard count (default 1)")
		connect   = fs.String("connect", "", "send frames to a hubnet server at this address instead of the in-process hub (-fleet forwards each device's frames; -devices/-scale export one stream per worker; -saturate points the load generator at it)")
		saturate  = fs.Bool("saturate", false, "with -connect: run the load generator, blasting freshly encoded frames at a -serve process")
		conns     = fs.Int("conns", 2, "with -saturate -connect: load-generator connections, each streaming a disjoint device range")
		satDur    = fs.Duration("saturate-duration", 5*time.Second, "with -saturate -connect: how long the load generator streams frames")
		ingestPL  = fs.Bool("ingest-pipeline", true, "with -serve: hand decoded frames to per-shard ring workers in batches (false = direct per-frame consume on the connection goroutine)")
		ringSlots = fs.Int("ring-slots", 0, "with -serve: per-shard ring capacity in batches (0 = default 256)")
		ringBatch = fs.Int("ring-batch", 0, "with -serve: frames per ring hand-off batch (0 = default 64)")
		ringFull  = fs.String("ring-policy", "block", "with -serve: what a full shard ring does to its producer — block (lossless backpressure) or drop (shed batches, count them)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}

	// Scale-flag validation: a silent zero-device run would report an empty
	// curve, so reject it loudly; an over-provisioned worker pool is legal
	// but wasteful, so warn.
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	devicesSet := set["devices"]
	if devicesSet && *devicesN < 1 {
		return fmt.Errorf("-devices must be at least 1, got %d", *devicesN)
	}
	sweep, err := parseScaleList(*scaleList)
	if err != nil {
		return err
	}
	if *conns < 1 {
		return fmt.Errorf("-conns: counts must be at least 1, got %d", *conns)
	}
	if *conns > saturateDevices {
		return fmt.Errorf("-conns: the load generator carries %d devices; %d connections would leave some idle", saturateDevices, *conns)
	}
	if *satDur <= 0 {
		return fmt.Errorf("-saturate-duration must be positive, got %v", *satDur)
	}
	if devicesSet && *fleetWrk > *devicesN {
		fmt.Fprintf(stdout, "warning: -workers %d exceeds -devices %d; extra workers will idle\n", *fleetWrk, *devicesN)
	}

	scaleMode := devicesSet || len(sweep) > 0
	sloSet := *sloP99 > 0 || *sloMinFPS > 0 || *sloStall > 0
	histSet := set["history-windows"] || set["history-interval"] || *histOut != ""
	if set["history-windows"] && *histWin < 1 {
		return fmt.Errorf("-history-windows must be at least 1, got %d", *histWin)
	}
	if *histEvery <= 0 {
		return fmt.Errorf("-history-interval must be positive, got %v", *histEvery)
	}
	opsSet := *opsListen != "" || sloSet || histSet
	metricsSet := *metrics || *metOut != ""
	if scaleMode && *fleetN > 0 {
		return fmt.Errorf("-fleet cannot be combined with the scale flags (-devices/-scale); pick one path")
	}
	if scaleMode && (*reliable || *burst > 0 || *burstLen > 0 || *ackLoss > 0) {
		return fmt.Errorf("-reliable/-burst/-burst-len/-ack-loss shape the session fleet's link; the scale path models loss via -loss only")
	}
	if opsSet && !scaleMode && *fleetN <= 0 && *serveAddr == "" {
		return fmt.Errorf("-ops-listen, -slo-* and -history-* flags require a live run (-fleet, -devices, -scale or -serve)")
	}
	if (*traceOut != "" || *flightRec || *traceSLO > 0) && *fleetN <= 0 {
		return fmt.Errorf("tracing flags (-trace-out, -flight-recorder, -trace-slo) require -fleet")
	}

	// Flag-combination validation, networked-hub and experiment-path edition:
	// every combination that would silently ignore a flag errors instead.
	simMode := *fleetN > 0 || scaleMode
	serveSet := *serveAddr != ""
	connectSet := *connect != ""
	switch {
	case serveSet && connectSet:
		return fmt.Errorf("-serve and -connect are mutually exclusive; run the server in one process and point a second process at it")
	case serveSet && simMode:
		return fmt.Errorf("-serve runs the ingest server only; simulate in a second process with -connect")
	case serveSet && *saturate:
		return fmt.Errorf("-saturate measures from the client side; run -serve in one process and -saturate -connect in another")
	case serveSet && (set["run"] || *csvDir != "" || *outPath != ""):
		return fmt.Errorf("-run/-csv/-o belong to a simulation run; -serve does not run one")
	case serveSet && (*reliable || set["loss"] || *burst > 0 || *burstLen > 0 || *ackLoss > 0):
		return fmt.Errorf("-reliable/-loss/-burst/-burst-len/-ack-loss shape a simulated link; they do not apply to -serve")
	case serveSet && set["workers"]:
		return fmt.Errorf("-workers bounds simulation concurrency; it does not apply to -serve")
	case serveSet && metricsSet:
		return fmt.Errorf("-metrics/-metrics-out report a simulation; scrape the server live via -ops-listen instead")
	case !serveSet && set["hub-shards"]:
		return fmt.Errorf("-hub-shards configures the -serve ingest server")
	case !serveSet && set["serve-for"]:
		return fmt.Errorf("-serve-for bounds a -serve run")
	case set["hub-shards"] && *hubShards < 1:
		return fmt.Errorf("-hub-shards must be at least 1, got %d", *hubShards)
	case !serveSet && (set["ingest-pipeline"] || set["ring-slots"] || set["ring-batch"] || set["ring-policy"]):
		return fmt.Errorf("-ingest-pipeline and -ring-* tune the -serve ingest server")
	case set["ring-slots"] && *ringSlots < 1:
		return fmt.Errorf("-ring-slots must be at least 1, got %d", *ringSlots)
	case set["ring-batch"] && *ringBatch < 1:
		return fmt.Errorf("-ring-batch must be at least 1, got %d", *ringBatch)
	case *ringFull != "block" && *ringFull != "drop":
		return fmt.Errorf("-ring-policy must be block or drop, got %q", *ringFull)
	case connectSet && !simMode && !*saturate:
		return fmt.Errorf("-connect streams a simulation's frames; combine it with -fleet, -devices, -scale or -saturate")
	case connectSet && *reliable:
		return fmt.Errorf("-reliable needs the in-process ack loop; acks cannot cross the -connect byte stream")
	}
	switch {
	case *saturate && simMode:
		return fmt.Errorf("-saturate runs its own ingest workload; it cannot be combined with -fleet or the scale flags")
	case *saturate && (set["run"] || *csvDir != "" || *outPath != ""):
		return fmt.Errorf("-run/-csv/-o belong to the experiment path; -saturate does not run it")
	case *saturate && metricsSet:
		return fmt.Errorf("-metrics/-metrics-out report a simulation; -saturate measures ingest throughput only")
	case *saturate && !connectSet:
		return fmt.Errorf("-saturate is the load generator and needs -connect pointing at a -serve process")
	case !*saturate && (set["conns"] || set["saturate-duration"]):
		return fmt.Errorf("-conns/-saturate-duration parameterise a -saturate run")
	case simMode && set["run"]:
		return fmt.Errorf("-run selects experiments; it cannot be combined with -fleet or the scale flags")
	case simMode && *csvDir != "":
		return fmt.Errorf("-csv writes the experiment path's study CSVs; it cannot be combined with -fleet or the scale flags")
	case scaleMode && *outPath != "":
		return fmt.Errorf("-o writes the experiment or fleet report; the scale path prints to stdout only")
	case set["workers"] && !simMode:
		return fmt.Errorf("-workers bounds a -fleet or scale run")
	case *burstLen > 0 && *burst <= 0:
		return fmt.Errorf("-burst-len sets the length of -burst bursts; set -burst > 0 as well")
	case *ackLoss > 0 && !*reliable:
		return fmt.Errorf("-ack-loss drops acks on the -reliable back-channel; add -reliable")
	case set["loss"] && !simMode:
		return fmt.Errorf("-loss shapes the simulated link; combine it with -fleet, -devices or -scale")
	}

	// One ops-plane parameter block serves every live-run path.
	opsFlags := opsOpts{
		listen:       *opsListen,
		p99:          *sloP99,
		minFPS:       *sloMinFPS,
		stall:        *sloStall,
		interval:     *sloEvery,
		history:      histSet,
		histWindows:  *histWin,
		histInterval: *histEvery,
		histOut:      *histOut,
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *rtTrace != "" {
		f, err := os.Create(*rtTrace)
		if err != nil {
			return fmt.Errorf("runtime-trace: %w", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("runtime-trace: %w", err)
		}
		defer trace.Stop()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "distscroll-bench: memprofile:", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "distscroll-bench: memprofile:", err)
			}
		}()
	}

	if serveSet {
		shards := *hubShards
		if shards < 1 {
			shards = 1
		}
		onFull := hubnet.BlockOnFull
		if *ringFull == "drop" {
			onFull = hubnet.DropOnFull
		}
		return runServe(serveOpts{
			addr:      *serveAddr,
			shards:    shards,
			dur:       *serveFor,
			pipeline:  *ingestPL,
			ringSlots: *ringSlots,
			ringBatch: *ringBatch,
			onFull:    onFull,
			ops:       opsFlags,
		}, stdout)
	}

	if *saturate {
		return runSaturateLoad(loadGenOpts{addr: *connect, conns: *conns, dur: *satDur}, stdout)
	}

	if scaleMode {
		if devicesSet {
			sweep = append([]int{*devicesN}, sweep...)
		}
		if metricsSet && len(sweep) > 1 {
			return fmt.Errorf("-metrics/-metrics-out merge one run's telemetry; use a single-point scale run (-devices N), not a %d-point sweep", len(sweep))
		}
		return runScaleSweep(scaleSweepOpts{
			sweep:      sweep,
			seed:       *seed,
			workers:    *fleetWrk,
			dur:        *scaleDur,
			loss:       *loss,
			metrics:    *metrics,
			metricsOut: *metOut,
			connect:    *connect,
			ops:        opsFlags,
		}, stdout)
	}

	if *fleetN > 0 {
		return runFleet(fleetOpts{
			devices:    *fleetN,
			workers:    *fleetWrk,
			seed:       *seed,
			outPath:    *outPath,
			metrics:    *metrics,
			metricsOut: *metOut,
			reliable:   *reliable,
			loss:       *loss,
			burst:      *burst,
			burstLen:   *burstLen,
			ackLoss:    *ackLoss,
			traceOut:   *traceOut,
			flightRec:  *flightRec,
			traceSLO:   *traceSLO,
			connect:    *connect,
			ops:        opsFlags,
		}, stdout)
	}

	if *csvDir != "" {
		if err := writeCSVs(*csvDir, *seed); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote trials.csv and conditions.csv to %s\n", *csvDir)
	}

	var runners []experiments.Runner
	if *runList == "" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			r, ok := experiments.Find(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (known: F1-F5, E1-E6, A1-A3)", id)
			}
			runners = append(runners, r)
		}
	}

	var report strings.Builder
	fmt.Fprintf(&report, "DistScroll reproduction report (seed %d)\n", *seed)
	fmt.Fprintf(&report, "%s\n\n", strings.Repeat("=", 60))
	for _, r := range runners {
		rep, err := r.Run(*seed)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		report.WriteString(rep.String())
		report.WriteString("\n")
	}

	if _, err := io.WriteString(stdout, report.String()); err != nil {
		return err
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(report.String()), 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
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

// opsOpts carries the live-ops-plane flags (-ops-listen, -slo-*,
// -history-*).
type opsOpts struct {
	listen       string
	p99          float64
	minFPS       float64
	stall        time.Duration
	interval     time.Duration
	history      bool
	histWindows  int
	histInterval time.Duration
	histOut      string
}

// enabled reports whether any ops-plane feature was requested.
func (o opsOpts) enabled() bool {
	return o.listen != "" || o.p99 > 0 || o.minFPS > 0 || o.stall > 0 || o.history
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
// requested) the HTTP server. stallClock names the series whose
// advancement proves the run is alive: sim_virtual_seconds on the scale
// path, hub_frames_decoded_total for the session fleet.
func startOpsPlane(o opsOpts, reg *telemetry.Registry, tracer *tracing.Tracer, stallClock string, stdout io.Writer) (*opsPlane, error) {
	var hist *history.Store
	if o.history {
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
	if hist != nil && tracer == nil && (o.p99 > 0 || o.minFPS > 0 || o.stall > 0) {
		// Breach forensics dump through a flight recorder; a run without
		// its own tracer gets a small bounded one so the pre/post table
		// still lands on stderr.
		tracer = tracing.New(tracing.Config{Bounded: true, Capacity: 64, DumpTo: os.Stderr})
	}
	wd := ops.StartWatchdog(ops.WatchdogConfig{
		Registry:        reg,
		Interval:        o.interval,
		LatencyMaxP99Ms: o.p99,
		StallGauge:      stallClock,
		StallAfter:      o.stall,
		MinRate:         minRateRules(o.minFPS),
		Tracer:          tracer,
		History:         hist,
		OnBreach: func(b ops.Breach) {
			fmt.Fprintf(os.Stderr, "slo watchdog: %s\n", b)
		},
	})
	p := &opsPlane{wd: wd, hist: hist, histOut: o.histOut}
	if o.listen != "" {
		srv, err := ops.Serve(o.listen, ops.Config{Registry: reg, Watchdog: wd, History: hist})
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
// half-stopped state, flushes the history store, and reports the verdict.
func (p *opsPlane) close(report io.Writer) {
	if p == nil {
		return
	}
	p.wd.Stop()
	if p.hist != nil {
		// One final sample so the end-of-run counters make the history,
		// then stop (which also flushes pending breach forensics).
		p.hist.Sample()
	}
	p.hist.Stop()
	p.srv.Close()
	if breaches := p.wd.Breaches(); len(breaches) > 0 {
		fmt.Fprintf(report, "slo watchdog: %d breach(es); first: %s\n", len(breaches), breaches[0])
	}
	if p.hist != nil && p.histOut != "" {
		path := p.histOut
		p.histOut = "" // close runs twice (explicit + deferred); write once
		if err := writeHistoryJSON(path, p.hist); err != nil {
			fmt.Fprintf(os.Stderr, "distscroll-bench: history-out: %v\n", err)
		} else {
			fmt.Fprintf(report, "wrote telemetry history (%d windows captured) to %s\n",
				p.hist.Captured(), path)
		}
	}
}

// writeHistoryJSON dumps the full retained history as the /api/history
// JSON document.
func writeHistoryJSON(path string, st *history.Store) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := st.WriteJSON(f, history.Query{}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runFleet simulates n devices concurrently against one hub and prints the
// per-device and aggregate accounting, optionally with full telemetry.
func runFleet(o fleetOpts, stdout io.Writer) error {
	cfg := fleet.Config{Devices: o.devices, Seed: o.seed, Workers: o.workers, Reliable: o.reliable}
	if o.loss >= 0 || o.burst > 0 || o.ackLoss > 0 {
		cfg.Core = core.DefaultConfig()
		if o.loss >= 0 {
			cfg.Core.Link.LossProb = o.loss
		}
		cfg.Core.Link.BurstLossProb = o.burst
		cfg.Core.Link.BurstLossLen = o.burstLen
		cfg.Core.Link.AckLossProb = o.ackLoss
	}
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
		// its liveness clock.
		var err error
		plane, err = startOpsPlane(o.ops, reg, tracer, telemetry.MetricHubDecoded, stdout)
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
		if err := writeTelemetryJSON(o.metricsOut, o.seed, results, tot, snap); err != nil {
			return err
		}
		fmt.Fprintf(&report, "wrote telemetry report to %s\n", o.metricsOut)
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		meta := map[string]any{
			"tool":    "distscroll-bench",
			"devices": o.devices,
			"seed":    o.seed,
			"decoded": tot.Decoded,
		}
		if err := tracer.WritePerfetto(f, meta); err != nil {
			f.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Fprintf(&report, "wrote Perfetto trace to %s (open in ui.perfetto.dev)\n", o.traceOut)
	}
	if tracer != nil && tracer.Dumps() > 0 {
		fmt.Fprintf(&report, "flight recorder: %d anomaly dump(s) written to stderr\n", tracer.Dumps())
	}

	if _, err := io.WriteString(stdout, report.String()); err != nil {
		return err
	}
	if o.outPath != "" {
		if err := os.WriteFile(o.outPath, []byte(report.String()), 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
	}
	return nil
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

func writeTelemetryJSON(path string, seed uint64, results []fleet.Result, tot fleet.Totals, snap *telemetry.Snapshot) error {
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
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry report: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("telemetry report: %w", err)
	}
	return nil
}
