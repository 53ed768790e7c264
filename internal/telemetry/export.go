package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Canonical metric names. Units are encoded in the name suffix; histogram
// bucket bounds are documented next to their default bucket sets below.
const (
	// Firmware stage counters (aggregated across every device sharing a
	// registry).
	MetricFwCycles          = "fw_cycles_total"
	MetricFwADCReads        = "fw_adc_reads_total"
	MetricFwScrollEvents    = "fw_scroll_events_total"
	MetricFwSelectEvents    = "fw_select_events_total"
	MetricFwLevelChanges    = "fw_level_changes_total"
	MetricFwIslandSwitches  = "fw_island_switches_total"
	MetricFwHysteresisHolds = "fw_hysteresis_holds_total"
	MetricFwIslandFlicker   = "fw_island_flicker_total"
	MetricFwFramesSent      = "fw_frames_sent_total"
	MetricFwTxErrors        = "fw_tx_errors_total"
	MetricFwDisplayWrites   = "fw_display_writes_total"

	// RF channel counters. The *_v0/_v1 variants split sent frames by wire
	// format version.
	MetricRFSent      = "rf_frames_sent_total"
	MetricRFSentV0    = "rf_frames_sent_v0_total"
	MetricRFSentV1    = "rf_frames_sent_v1_total"
	MetricRFLost      = "rf_frames_lost_total"
	MetricRFBurstLost = "rf_frames_burst_lost_total"
	MetricRFCorrupted = "rf_frames_corrupted_total"
	MetricRFDelivered = "rf_frames_delivered_total"

	// Ack back-channel (ReverseLink) counters for reliable assemblies.
	MetricRFAcksSent      = "rf_acks_sent_total"
	MetricRFAcksLost      = "rf_acks_lost_total"
	MetricRFAcksDelivered = "rf_acks_delivered_total"

	// Reliable-delivery (ARQ) sender counters.
	MetricARQEnqueued     = "arq_enqueued_frames_total"
	MetricARQAcked        = "arq_acked_frames_total"
	MetricARQRetransmits  = "arq_retransmits_total"
	MetricARQTimeouts     = "arq_timeouts_total"
	MetricARQAcksReceived = "arq_acks_received_total"
	MetricARQDupAcks      = "arq_duplicate_acks_total"
	MetricARQQueueDrops   = "arq_queue_drops_total"
	MetricARQRetryDrops   = "arq_retry_drops_total"

	// Host hub / session counters.
	MetricHubDecoded    = "hub_frames_decoded_total"
	MetricHubEvents     = "hub_events_total"
	MetricHubBadFrames  = "hub_bad_frames_total"
	MetricHubSeqGaps    = "hub_seq_gap_frames_total"
	MetricHubDuplicates = "hub_seq_duplicates_total"
	MetricHubReordered  = "hub_seq_reordered_total"
	MetricHubDevices    = "hub_devices"

	// Reliable-receive admission counters: retransmit duplicates dropped,
	// ahead-of-sequence frames deferred, and forced resyncs past holes the
	// sender abandoned.
	MetricHubStale      = "hub_arq_stale_frames_total"
	MetricHubAheadDrops = "hub_arq_ahead_drops_total"
	MetricHubResyncs    = "hub_arq_resyncs_total"

	// MetricHubE2ELatency is the end-to-end pipeline latency histogram
	// (firmware sample tick → hub handler dispatch) in milliseconds, folded
	// over every session. It is recorded only where both ends share a
	// clock: the in-process hub and host and the loopback gateway, which
	// deliver frames at the device's virtual time. A TCP-served gateway
	// stamps frames on its own clock and records MetricNetRingWait
	// instead. Per-device series carry a {device="N"} label suffix and
	// exist for at most MaxDeviceSeries sessions per snapshot (see
	// Snapshot.AddDeviceLatency).
	MetricHubE2ELatency = "hub_e2e_latency_ms"
	// MetricDeviceSeriesRefused counts the sessions whose per-device
	// latency series a snapshot left out because the budget was spent.
	MetricDeviceSeriesRefused = "telemetry_device_series_refused"
	// MetricHubDispatch is the wall-clock handler and tap dispatch time in
	// seconds. It is a sample: a session times one frame in 64 (those
	// whose sequence number is a multiple of 64), and only when handlers
	// or taps are registered, so its count is about 1/64 of the
	// dispatched frames.
	MetricHubDispatch = "hub_dispatch_seconds"

	// Simulation-engine gauges for the struct-of-arrays scale path
	// (fleet.RunScale): the live view of a run in flight. Counters above are
	// deterministic per seed; these gauges involve wall-clock rates and
	// scheduler occupancy, so they describe the machine, not the model.
	MetricSimDevices        = "sim_devices"
	MetricSimWorkers        = "sim_workers"
	MetricSimVirtualSeconds = "sim_virtual_seconds"
	MetricSimTicksPerSec    = "sim_ticks_per_second"
	MetricSimDevSecPerSec   = "sim_device_seconds_per_second"
	MetricSimFramesInFlight = "sim_frames_in_flight"
	MetricSimPendingEvents  = "sim_pending_events"

	// Networked hub gateway counters (internal/hubnet): the TCP/loopback
	// ingest edge in front of the sharded hubs. Bytes/frames/resyncs count
	// raw wire activity before demux; short reads are ingest reads that
	// ended mid-frame (the decoder is holding a partial frame).
	MetricNetConnsTotal = "net_conns_total"
	MetricNetConnsOpen  = "net_conns_open"
	MetricNetBytesRead  = "net_bytes_read_total"
	MetricNetFrames     = "net_frames_total"
	MetricNetBadFrames  = "net_bad_frames_total"
	MetricNetShortReads = "net_short_reads_total"
	MetricNetResyncs    = "net_decode_resyncs_total"
	MetricNetShards     = "net_hub_shards"

	// Ingest pipeline ring counters (internal/hubnet): the per-shard MPSC
	// hand-off rings between connection decoders and the single-writer shard
	// workers. Depth is occupied slots summed over rings at scrape time;
	// stalls count block-on-full episodes, dropped counts batches shed under
	// the drop policy. The pipeline gauge is 1 when the ring hand-off is
	// active, 0 on the direct synchronous consume path.
	MetricNetPipeline      = "net_ingest_pipeline"
	MetricNetRingDepth     = "net_ring_depth"
	MetricNetRingBatches   = "net_ring_batches_total"
	MetricNetRingStalls    = "net_ring_stalls_total"
	MetricNetRingDropped   = "net_ring_dropped_total"
	MetricNetAcceptRetries = "net_accept_retries_total"
	// MetricNetRingWait is the served gateway's ring wait in milliseconds:
	// for every consumed frame, the time from its batch's ingest stamp to
	// the start of the batch's consume, both read on the server's clock.
	// Each shard worker reads the clock once per batch and records the
	// wait for every frame in it; the collector folds the shards into one
	// series. Only a TCP-served, pipelined gateway records it.
	MetricNetRingWait = "net_ring_wait_ms"
)

// LatencyBucketsMs are the default end-to-end latency bucket bounds in
// milliseconds, spanning the RF model's base latency (4 ms) plus jitter
// and 19.2 kbit/s serialisation through retransmission-scale tails.
var LatencyBucketsMs = []float64{
	1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50, 65, 80, 100, 150, 250, 500, 1000,
}

// RingWaitBucketsMs are the ring-wait bucket bounds in milliseconds: a
// batch that finds its shard worker idle waits microseconds, one queued
// behind a full ring waits milliseconds.
var RingWaitBucketsMs = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000,
}

// DispatchBucketsSec are the default handler dispatch bucket bounds in
// wall-clock seconds.
var DispatchBucketsSec = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 1e-3, 1e-2,
}

// DeviceLatencyName returns the per-device end-to-end latency series name,
// e.g. `hub_e2e_latency_ms{device="7"}`.
func DeviceLatencyName(device uint32) string {
	return fmt.Sprintf("%s{device=%q}", MetricHubE2ELatency, fmt.Sprint(device))
}

// MaxDeviceSeries is the per-snapshot budget of per-device latency series.
// Every session still folds into the aggregate hub_e2e_latency_ms; only
// its own labelled series is subject to the budget, so the history
// store's rings, the /metrics body and the watchdog's snapshots stay
// bounded however many devices a hub serves.
const MaxDeviceSeries = 64

// ShardName returns the per-shard variant of a gateway series name, e.g.
// `hub_frames_decoded_total{shard="3"}`. The gateway publishes both the
// canonical aggregate and one labelled series per hub shard.
func ShardName(name string, shard int) string {
	return fmt.Sprintf("%s{shard=%q}", name, fmt.Sprint(shard))
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bucket bounds; Counts has one extra
	// trailing overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
}

// Mean returns the mean observed value, 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the containing bucket, Prometheus-style: the first bucket
// interpolates from 0, the overflow bucket clamps to the last bound.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum uint64
	for i, c := range h.Counts {
		prev := float64(cum)
		cum += c
		if c == 0 || float64(cum) < rank {
			continue
		}
		if i == len(h.Bounds) {
			// Overflow bucket: no upper bound to interpolate towards.
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		frac := 0.0
		if c > 0 {
			frac = (rank - prev) / float64(c)
		}
		return lo + (h.Bounds[i]-lo)*frac
	}
	return h.Bounds[len(h.Bounds)-1]
}

// merge folds another snapshot of the same shape into this one.
func (h *HistogramSnapshot) merge(o HistogramSnapshot) error {
	if len(h.Bounds) == 0 {
		*h = o
		h.Bounds = append([]float64(nil), o.Bounds...)
		h.Counts = append([]uint64(nil), o.Counts...)
		return nil
	}
	if len(o.Bounds) != len(h.Bounds) || len(o.Counts) != len(h.Counts) {
		return fmt.Errorf("telemetry: merging histograms with different bucket shapes (%d vs %d bounds)",
			len(h.Bounds), len(o.Bounds))
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Count += o.Count
	h.Sum += o.Sum
	return nil
}

// Snapshot is a point-in-time, JSON-serialisable view of every instrument
// in a registry plus everything its collectors contributed.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`

	// devices holds the ids whose per-device latency series this snapshot
	// carries (at most MaxDeviceSeries); refused counts the sessions left
	// out. Nil until the first AddDeviceLatency.
	devices map[uint32]struct{}
	refused int
}

// NewSnapshot returns an empty snapshot ready for collector contributions.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
}

// AddCounter accumulates v onto the named counter (collector API: many
// devices contribute to one fleet-wide name).
func (s *Snapshot) AddCounter(name string, v uint64) {
	s.Counters[name] += v
}

// SetGauge stores v as the named gauge.
func (s *Snapshot) SetGauge(name string, v float64) {
	if s.Gauges == nil {
		s.Gauges = make(map[string]float64)
	}
	s.Gauges[name] = v
}

// MergeHistogram folds a histogram snapshot into the named series, summing
// bucket counts when the series already exists. Shape mismatches are
// ignored rather than corrupting the series (they indicate a programming
// error caught by tests, not a runtime condition worth a panic).
func (s *Snapshot) MergeHistogram(name string, h HistogramSnapshot) {
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistogramSnapshot)
	}
	cur := s.Histograms[name]
	if err := cur.merge(h); err != nil {
		return
	}
	s.Histograms[name] = cur
}

// AddDeviceLatency folds one session's latency histogram into the
// aggregate MetricHubE2ELatency series and, while fewer than
// MaxDeviceSeries devices have a series of their own, into the device's
// labelled series; past the budget the session is counted as refused.
// Sessions are admitted in call order, so a collector that walks its
// sessions in registration order exports the same devices every time.
// The aggregate is summed in place, so only the admitted series allocate.
// The caller synchronises h.
func (s *Snapshot) AddDeviceLatency(device uint32, h *LocalHistogram) {
	if h == nil {
		return
	}
	v := h.view()
	s.MergeHistogram(MetricHubE2ELatency, v)
	if s.devices == nil {
		s.devices = make(map[uint32]struct{}, MaxDeviceSeries)
	}
	if _, ok := s.devices[device]; !ok {
		if len(s.devices) == MaxDeviceSeries {
			s.refused++
			return
		}
		s.devices[device] = struct{}{}
	}
	s.MergeHistogram(DeviceLatencyName(device), v)
}

// Histogram returns the named histogram series.
func (s *Snapshot) Histogram(name string) (HistogramSnapshot, bool) {
	h, ok := s.Histograms[name]
	return h, ok
}

// finalize computes the derived quantiles of every histogram and, when any
// session offered a per-device series, publishes the refused count. Called
// once after all collectors ran, so merged bucket counts are final.
func (s *Snapshot) finalize() {
	if s.devices != nil {
		s.SetGauge(MetricDeviceSeriesRefused, float64(s.refused))
	}
	for name, h := range s.Histograms {
		h.P50 = h.Quantile(0.50)
		h.P90 = h.Quantile(0.90)
		h.P99 = h.Quantile(0.99)
		s.Histograms[name] = h
	}
}

// sanitized returns the snapshot with every non-finite float replaced by 0,
// so serialisation cannot fail: encoding/json rejects NaN and ±Inf outright,
// and a single poisoned gauge or merged sum must not take down the whole
// export. Returns the receiver unchanged (no copy) when already clean.
func (s *Snapshot) sanitized() *Snapshot {
	clean := true
	for _, v := range s.Gauges {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			clean = false
		}
	}
	for _, h := range s.Histograms {
		for _, v := range [...]float64{h.Sum, h.P50, h.P90, h.P99} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				clean = false
			}
		}
	}
	if clean {
		return s
	}
	fix := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	out := &Snapshot{Counters: s.Counters}
	if s.Gauges != nil {
		out.Gauges = make(map[string]float64, len(s.Gauges))
		for k, v := range s.Gauges {
			out.Gauges[k] = fix(v)
		}
	}
	if s.Histograms != nil {
		out.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		for k, h := range s.Histograms {
			h.Sum, h.P50, h.P90, h.P99 = fix(h.Sum), fix(h.P50), fix(h.P90), fix(h.P99)
			out.Histograms[k] = h
		}
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON. Non-finite floats are
// written as 0 (encoding/json cannot represent them).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.sanitized()); err != nil {
		return fmt.Errorf("telemetry: write json: %w", err)
	}
	return nil
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format, sorted for stable output. Series names may embed a label set
// (`name{device="7"}`); histogram suffixes splice their `le` label into it.
// Each metric family gets one TYPE line with its series listed together
// beneath it, as the format requires. The body streams through a buffered
// writer on w rather than being built whole first.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	s = s.sanitized()
	b := bufio.NewWriter(w)

	prev := ""
	for _, f := range familyOrder(s.Counters) {
		if f.base != prev {
			fmt.Fprintf(b, "# TYPE %s counter\n", f.base)
			prev = f.base
		}
		fmt.Fprintf(b, "%s%s %d\n", f.base, wrapLabels(f.labels), s.Counters[f.name])
	}

	prev = ""
	for _, f := range familyOrder(s.Gauges) {
		if f.base != prev {
			fmt.Fprintf(b, "# TYPE %s gauge\n", f.base)
			prev = f.base
		}
		fmt.Fprintf(b, "%s%s %g\n", f.base, wrapLabels(f.labels), s.Gauges[f.name])
	}

	prev = ""
	for _, f := range familyOrder(s.Histograms) {
		h := s.Histograms[f.name]
		base, labels := f.base, f.labels
		if base != prev {
			fmt.Fprintf(b, "# TYPE %s histogram\n", base)
			prev = base
		}
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = trimFloat(h.Bounds[i])
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", base, wrapLabels(joinLabels(labels, `le="`+le+`"`)), cum)
		}
		fmt.Fprintf(b, "%s_sum%s %g\n", base, wrapLabels(labels), h.Sum)
		fmt.Fprintf(b, "%s_count%s %d\n", base, wrapLabels(labels), h.Count)
	}

	if err := b.Flush(); err != nil {
		return fmt.Errorf("telemetry: write prometheus: %w", err)
	}
	return nil
}

// series is one exported series name split into its family (base) name
// and its inner label list.
type series struct{ name, base, labels string }

// familyOrder returns the series of m sorted by (base, labels), so each
// family's series are contiguous. Sorting whole names would not do: '_'
// sorts before '{', so `foo_bar` would land between `foo` and `foo{...}`.
func familyOrder[V any](m map[string]V) []series {
	out := make([]series, 0, len(m))
	for name := range m {
		base, labels := splitLabels(name)
		out = append(out, series{name, base, labels})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].base != out[j].base {
			return out[i].base < out[j].base
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// splitLabels splits `name{a="b"}` into base name and inner label list.
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	return a + "," + b
}

func wrapLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
