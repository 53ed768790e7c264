package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hcilab/distscroll/internal/hubnet"
	"github.com/hcilab/distscroll/internal/rf"
)

// This file implements the load command: a network load generator. Each
// connection blasts freshly encoded frames at a serve process for -duration,
// which is what the CI saturate-smoke job uses to put real bytes through
// the ingest pipeline while scraping net_ring_* live. Measured ingest
// throughput comes from perfbench's ingest-tcp workload.

// saturateDevices is the device population the load generator splits
// across its connections in disjoint contiguous ranges.
const saturateDevices = 64

// loadGenOpts parameterises the load command.
type loadGenOpts struct {
	addr  string
	conns int
	dur   time.Duration
}

func loadCmd(args []string, stdout io.Writer) error {
	var o loadGenOpts
	var prof profOpts
	fs := newFlagSet("distscroll-bench load",
		"Streams freshly encoded frames at a serve process from several connections\nand prints how many it sent.", stdout)
	fs.StringVar(&o.addr, "connect", "", "address of the serve process to stream frames at (required)")
	fs.IntVar(&o.conns, "conns", 2, "connections, each streaming a disjoint device range")
	fs.DurationVar(&o.dur, "duration", 5*time.Second, "how long to stream frames")
	prof.register(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	switch {
	case o.addr == "":
		return fmt.Errorf("the load generator needs -connect pointing at a serve process")
	case o.conns < 1:
		return fmt.Errorf("-conns: counts must be at least 1, got %d", o.conns)
	case o.conns > saturateDevices:
		return fmt.Errorf("-conns: the load generator carries %d devices; %d connections would leave some idle", saturateDevices, o.conns)
	case o.dur <= 0:
		return fmt.Errorf("-duration must be positive, got %v", o.dur)
	}
	return prof.run(func() error { return runSaturateLoad(o, stdout) })
}

// loadGenRoundsPerFlush bounds the deadline-check cadence: each
// connection encodes this many rounds per SendEncoded, so one flush
// carries roundsPerFlush × itsDevices frames (~30 KB at 16 devices).
const loadGenRoundsPerFlush = 64

// runSaturateLoad blasts frames at a hubnet server from `conns`
// connections over disjoint device ranges for the configured duration.
// Frames are re-encoded per lap with monotonically increasing sequence
// numbers, so the server sees clean in-order streams, not replays.
func runSaturateLoad(o loadGenOpts, stdout io.Writer) error {
	fmt.Fprintf(stdout, "saturate: %d connection(s) -> %s for %s\n", o.conns, o.addr, o.dur)
	var wg sync.WaitGroup
	var sent atomic.Uint64
	errs := make([]error, o.conns)
	start := time.Now()
	deadline := start.Add(o.dur)
	for c := 0; c < o.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := hubnet.Dial(o.addr)
			if err != nil {
				errs[c] = err
				return
			}
			defer conn.Close()
			lo, hi := c*saturateDevices/o.conns+1, (c+1)*saturateDevices/o.conns
			buf := make([]byte, 0, 64<<10)
			payload := make([]byte, 0, 64)
			seq := 0
			for time.Now().Before(deadline) {
				buf = buf[:0]
				n := 0
				for r := 0; r < loadGenRoundsPerFlush; r++ {
					for dev := lo; dev <= hi; dev++ {
						msg := rf.Message{Device: uint32(dev), Kind: rf.MsgScroll, Seq: uint16(seq), AtMillis: uint32(seq) * 40}
						payload = msg.AppendBinary(payload[:0])
						buf, err = rf.AppendEncode(buf, payload)
						if err != nil {
							errs[c] = err
							return
						}
						n++
					}
					seq++
				}
				if err := conn.SendEncoded(buf, n); err != nil {
					errs[c] = err
					return
				}
				sent.Add(uint64(n))
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("saturate load: %w", err)
		}
	}
	elapsed := time.Since(start).Seconds()
	fmt.Fprintf(stdout, "saturate: streamed %d frames in %.1fs (%.0f frames/s)\n",
		sent.Load(), elapsed, float64(sent.Load())/elapsed)
	return nil
}
