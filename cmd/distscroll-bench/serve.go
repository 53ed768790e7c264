package main

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hcilab/distscroll/internal/hubnet"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// This file implements the serve command: the networked hub. The process
// listens for frame-ingest connections, demultiplexes the stream across
// hub shards, and (with -ops-listen) exposes the per-shard hub_* and net_*
// series live. A second process points fleet, scale or load -connect at it.

// serveOpts parameterises a serve invocation.
type serveOpts struct {
	addr     string
	shards   int
	dur      time.Duration
	pipeline bool
	policy   string
	ops      opsOpts
}

func serveCmd(args []string, stdout io.Writer) error {
	var o serveOpts
	var prof profOpts
	fs := newFlagSet("distscroll-bench serve",
		"Runs the networked hub: accepts frame-ingest connections, demultiplexes\nthem across hub shards and prints the gateway's accounting when it stops.", stdout)
	fs.StringVar(&o.addr, "listen", "", "accept frame-ingest connections on this address (e.g. 127.0.0.1:9200; port 0 picks one); required")
	fs.IntVar(&o.shards, "shards", 1, "number of hub shards; frames route by device id modulo the shard count")
	fs.DurationVar(&o.dur, "for", 0, "stop after this long (0 = serve until SIGINT/SIGTERM)")
	fs.BoolVar(&o.pipeline, "ingest-pipeline", true, "hand decoded frames to per-shard ring workers in batches (false = direct per-frame consume on the connection goroutine)")
	fs.StringVar(&o.policy, "ring-policy", "block", "what a full shard ring does to its producer — block (lossless backpressure) or drop (shed batches, count them)")
	o.ops.register(fs)
	// A served gateway has no end-to-end latency (its ingest stamps and
	// the devices' time are different clocks); the p99 rule reads the
	// ring wait, which it measures on one clock.
	o.ops.latencyMetric = telemetry.MetricNetRingWait
	fs.Lookup("slo-p99").Usage = "SLO watchdog: breach when the windowed p99 of net_ring_wait_ms (ingest stamp to shard consume; needs -ingest-pipeline) exceeds this many milliseconds (0 = off)"
	prof.register(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	switch {
	case o.addr == "":
		return fmt.Errorf("-listen is required")
	case o.shards < 1:
		return fmt.Errorf("-shards must be at least 1, got %d", o.shards)
	case o.dur < 0:
		return fmt.Errorf("-for must not be negative, got %v", o.dur)
	case o.policy != "block" && o.policy != "drop":
		return fmt.Errorf("-ring-policy must be block or drop, got %q", o.policy)
	case o.ops.p99 > 0 && !o.pipeline:
		return fmt.Errorf("-slo-p99 reads net_ring_wait_ms, which only -ingest-pipeline records; drop -ingest-pipeline=false or -slo-p99")
	}
	if err := o.ops.check(fs); err != nil {
		return err
	}
	return prof.run(func() error { return runServe(o, stdout) })
}

// runServe serves frame ingest until the -for deadline or an
// interrupt, then prints the gateway's accounting.
func runServe(o serveOpts, stdout io.Writer) error {
	reg := telemetry.New()
	onFull := hubnet.BlockOnFull
	if o.policy == "drop" {
		onFull = hubnet.DropOnFull
	}
	srv, err := hubnet.Serve(o.addr, hubnet.Config{
		Shards:   o.shards,
		Registry: reg,
		Pipeline: o.pipeline,
		OnFull:   onFull,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(stdout, "hubnet: serving frame ingest on %s (%d shard(s))\n",
		srv.Addr(), srv.Gateway().Shards())
	if o.pipeline {
		fmt.Fprintf(stdout, "hubnet: ingest pipeline on (%d ring slot(s) x %d-frame batches per shard, %s on full)\n",
			hubnet.DefaultRingSlots, hubnet.DefaultBatchFrames, o.policy)
	}

	var opsSummary strings.Builder
	var plane *opsPlane
	if o.ops.enabled() {
		// Ingested frames are the server's liveness clock: the stall rule
		// falls back to the counter when no gauge carries the name.
		plane, err = startOpsPlane(o.ops, reg, nil, telemetry.MetricNetFrames, srv.Gateway().Lookup, stdout)
		if err != nil {
			return err
		}
		defer plane.close(io.Discard)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	var deadline <-chan time.Time
	if o.dur > 0 {
		t := time.NewTimer(o.dur)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case <-sig:
		fmt.Fprintln(stdout, "hubnet: interrupted, draining")
	case <-deadline:
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if plane != nil {
		plane.close(&opsSummary)
	}

	gw := srv.Gateway()
	ns := gw.NetStats()
	hs := gw.Stats()
	fmt.Fprintf(stdout, "net: %d conn(s) (%d still open), %d bytes in, %d frames (%d bad, %d short reads, %d resync bytes)\n",
		ns.ConnsTotal, ns.ConnsOpen, ns.BytesRead, ns.Frames, ns.BadFrames, ns.ShortReads, ns.Resyncs)
	if gw.Pipelined() {
		fmt.Fprintf(stdout, "pipeline: %d ring batch(es), %d stall(s), %d dropped\n",
			ns.RingBatches, ns.RingStalls, ns.RingDropped)
	}
	fmt.Fprintf(stdout, "hub: %d device(s), %d frames decoded, %d events, %d seq gaps\n",
		hs.Devices, hs.Decoded, hs.Events, hs.MissedSeq)
	for i, st := range gw.ShardStats() {
		fmt.Fprintf(stdout, "  shard %d: %d device(s), %d decoded\n", i, st.Devices, st.Decoded)
	}
	_, err = io.WriteString(stdout, opsSummary.String())
	return err
}
