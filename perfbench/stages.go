package main

import (
	"fmt"
	"time"

	"github.com/hcilab/distscroll/internal/adc"
	"github.com/hcilab/distscroll/internal/firmware"
	"github.com/hcilab/distscroll/internal/gp2d120"
	"github.com/hcilab/distscroll/internal/mapping"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/sim"
)

// stageInputs are recorded from the traced fleet-arq pass: the hand
// distance and the telemetry payload at each sampled transmission.
type stageInputs struct {
	distances []float64
	payloads  [][]byte
}

type stageTime struct {
	name string
	ns   float64
}

// stageSink keeps the stage loops' results observable so the compiler
// cannot drop the calls.
var stageSink float64

// timeStages times, in isolation, each pipeline stage no seam splits:
// sensor sample, ADC read, firmware filter, island mapping, frame encode
// and frame decode. Each runs in a loop over the recorded inputs; the
// reported figure is the median per-call time over blocks of calls.
func timeStages(in stageInputs, seed uint64) ([]stageTime, error) {
	n := len(in.distances)
	if n == 0 {
		return nil, fmt.Errorf("stage isolation: no inputs recorded")
	}
	sensor, err := gp2d120.New(gp2d120.DefaultConfig(), gp2d120.DefaultSurface(), sim.NewRand(seed))
	if err != nil {
		return nil, err
	}
	volts := make([]float64, n)
	for i, d := range in.distances {
		volts[i] = sensor.Sample(d)
	}
	conv, err := adc.New(adc.DefaultVref, 1, sim.NewRand(seed+1))
	if err != nil {
		return nil, err
	}
	next := 0
	if err := conv.Connect(0, func() float64 {
		v := volts[next]
		if next++; next == n {
			next = 0
		}
		return v
	}); err != nil {
		return nil, err
	}
	filtered := make([]float64, n)
	filter, err := firmware.NewFilter(firmware.MedianEMA, firmware.DefaultConfig().FilterAlpha)
	if err != nil {
		return nil, err
	}
	// Channel 0 exists, so Read cannot fail; nor can encoding a message,
	// which is far below rf.MaxPayload.
	for i := range filtered {
		code, _ := conv.Read(0)
		filtered[i] = filter.Apply(conv.Voltage(code))
	}
	mapper, err := mapping.New(mapping.DefaultConfig(12), sensor.Ideal)
	if err != nil {
		return nil, err
	}
	msgs := make([]rf.Message, n)
	frames := make([][]byte, n)
	for i, pl := range in.payloads {
		if err := msgs[i].UnmarshalBinary(pl); err != nil {
			return nil, fmt.Errorf("stage isolation: recorded payload %d: %w", i, err)
		}
		if frames[i], err = rf.Encode(pl); err != nil {
			return nil, err
		}
	}

	var (
		buf, frame []byte
		dec        = rf.NewDecoder()
		m          rf.Message
	)
	onPayload := func(p []byte) {
		if m.Decode(p) {
			stageSink += float64(m.Seq)
		}
	}
	return []stageTime{
		{"gp2d120.sample_ns", timeLoop(n, func(i int) { stageSink += sensor.Sample(in.distances[i]) })},
		{"adc.read_ns", timeLoop(n, func(int) {
			code, _ := conv.Read(0)
			stageSink += float64(code)
		})},
		{"firmware.filter_ns", timeLoop(n, func(i int) { stageSink += filter.Apply(volts[i]) })},
		{"mapping.lookup_ns", timeLoop(n, func(i int) {
			idx, _ := mapper.Map(filtered[i])
			stageSink += float64(idx)
		})},
		{"rf.encode_ns", timeLoop(n, func(i int) {
			buf = msgs[i].AppendBinary(buf[:0])
			frame, _ = rf.AppendEncode(frame[:0], buf)
			stageSink += float64(len(frame))
		})},
		{"rf.decode_ns", timeLoop(n, func(i int) { dec.FeedFunc(frames[i], onPayload) })},
	}, nil
}

// timeLoop calls f over the inputs in blocks and returns the median
// per-call nanoseconds across blocks, running at least 40 blocks and
// about 150 ms.
func timeLoop(n int, f func(i int)) float64 {
	const block = 256
	var per []float64
	start := time.Now()
	for b, i := 0, 0; b < 40 || time.Since(start) < 150*time.Millisecond; b++ {
		t0 := time.Now()
		for j := 0; j < block; j++ {
			f(i)
			if i++; i == n {
				i = 0
			}
		}
		per = append(per, float64(time.Since(t0))/block)
	}
	return median(per)
}
