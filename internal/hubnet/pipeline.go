package hubnet

import (
	"runtime"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

// Default pipeline sizing: 256 batches of 64 frames bounds one shard's
// in-flight backlog at 16k messages (~500 KB of copied message structs)
// while amortising ring traffic to one hand-off per ~64 frames. Exported
// so operator tooling can report the effective configuration.
const (
	DefaultRingSlots   = 256
	DefaultBatchFrames = 64
)

// startPipeline builds one ring and starts one worker goroutine per
// shard. Each worker owns its shard outright from here on: session
// consume, the ingest trace hop and the shard frame tally all run
// single-writer on the worker, so the hot path's cross-core traffic
// shrinks to the ring hand-off itself.
func (g *Gateway) startPipeline(cfg Config) {
	slots, batch := cfg.RingSlots, cfg.BatchFrames
	if slots <= 0 {
		slots = DefaultRingSlots
	}
	if batch <= 0 {
		batch = DefaultBatchFrames
	}
	g.pipeline = true
	g.batchFrames = batch
	g.blockOnFull = cfg.OnFull == BlockOnFull
	g.done = make(chan struct{})
	g.rings = make([]*ring, len(g.shards))
	g.workers = make([]shardWorker, len(g.shards))
	for i := range g.rings {
		g.rings[i] = newRing(slots, batch)
	}
	for i := range g.workers {
		sh := i
		ws := &g.workers[sh]
		// The trace-hop hook is built once per worker and closes over the
		// worker state, so the per-message path allocates nothing.
		ws.pre = func(s *core.Session, m rf.Message) {
			if rec := s.Tracer(); rec != nil {
				rec.Record(tracing.HopNetIngest, m.Seq, ws.at, m.AtMillis, tracing.PackNetIngest(sh, true))
			}
		}
		if g.now != nil && cfg.Registry != nil {
			ws.wait = telemetry.NewLocalHistogram(telemetry.RingWaitBucketsMs)
		}
		g.wg.Add(1)
		go g.shardWorkerLoop(sh)
	}
}

// Pipelined reports whether the gateway runs the ring hand-off pipeline.
func (g *Gateway) Pipelined() bool { return g.pipeline }

// shardWorkerLoop is one shard's dedicated consumer: dequeue a batch,
// consume it into the shard hub, release the slot. On shutdown it drains
// whatever the producers left in the ring before exiting, so a Close
// after the feeders stop loses nothing.
func (g *Gateway) shardWorkerLoop(sh int) {
	defer g.wg.Done()
	r := g.rings[sh]
	for {
		if slot := r.tryDequeue(); slot != nil {
			g.consumeSlot(sh, slot)
			r.release(slot)
			continue
		}
		select {
		case <-r.notify:
		case <-g.done:
			for {
				slot := r.tryDequeue()
				if slot == nil {
					return
				}
				g.consumeSlot(sh, slot)
				r.release(slot)
			}
		}
	}
}

// consumeSlot drains one batch into the shard hub. The whole batch
// shares one arrival stamp (its frames were decoded from one read
// chunk), the routing table is loaded once per batch, and the shard
// frame tally advances once per batch from the worker's local counter.
// On a served gateway the worker reads the ingest clock once per batch
// and records the batch's ring wait for every frame in it.
func (g *Gateway) consumeSlot(sh int, slot *ringSlot) {
	ws := &g.workers[sh]
	ws.at = slot.at
	if ws.wait != nil {
		ws.observeWait(g.now()-slot.at, slot.n)
	}
	g.shards[sh].ConsumeBatch(slot.msgs[:slot.n], slot.at, ws.pre)
	g.shardFrames[sh].Add(uint64(slot.n))
}

// Drain blocks until every batch handed to the rings has been consumed.
// Call it after the feeders have gone quiet (benchmark end, server
// shutdown) to make the shard stats settle; with feeders still running
// it only proves the rings were momentarily empty. No-op on a direct
// (non-pipelined) gateway, where consume is synchronous anyway.
func (g *Gateway) Drain() {
	for _, r := range g.rings {
		for spin := 0; r.depth() > 0; spin++ {
			// Yield first: on a loaded box the workers are runnable and a
			// Gosched hands them the core immediately; fall back to real
			// sleeps only if the backlog persists (timer granularity would
			// otherwise dominate short drains).
			if spin < 4096 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
}

// Close stops the pipeline: the workers drain their rings and exit.
// Producers must have stopped feeding first (the server closes its
// connections before calling this). Safe to call twice; a no-op on a
// direct gateway.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		if !g.pipeline {
			return
		}
		close(g.done)
		g.wg.Wait()
	})
}
