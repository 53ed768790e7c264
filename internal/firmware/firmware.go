package firmware

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hcilab/distscroll/internal/buttons"
	devctx "github.com/hcilab/distscroll/internal/context"
	"github.com/hcilab/distscroll/internal/display"
	"github.com/hcilab/distscroll/internal/gp2d120"
	"github.com/hcilab/distscroll/internal/mapping"
	"github.com/hcilab/distscroll/internal/menu"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/smartits"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

// Config parameterises the firmware build.
type Config struct {
	// DeviceID is stamped into every telemetry message (frame v1) so a
	// host hub can attribute frames when many devices share a receiver.
	DeviceID uint32
	// SamplePeriod is the sensor polling period (prototype: 25 Hz).
	SamplePeriod time.Duration
	// Filter selects the smoothing strategy; FilterAlpha its EMA gain.
	Filter      FilterKind
	FilterAlpha float64
	// Mapping is the island mapping template; Entries is overwritten per
	// menu level.
	Mapping mapping.Config
	// DebugPeriod is how often the bottom (debug) display refreshes.
	DebugPeriod time.Duration
	// HeartbeatPeriod is the keep-alive interval on the RF link.
	HeartbeatPeriod time.Duration
	// SelectButton confirms the current entry; BackButton ascends.
	SelectButton buttons.ID
	BackButton   buttons.ID
	// LowBatteryVolts is the warning threshold; <= 0 uses the default.
	LowBatteryVolts float64
	// DualSensor averages both distance sensors (the prototype fits two;
	// "only one is used in our experiments so far") for √2 lower noise.
	DualSensor bool
	// PowerSave drops to a slow sampling cadence after IdleAfter without
	// interaction; IdleSamplePeriod is that cadence (defaults apply when
	// zero). The GP2D120 is the largest power draw on the board.
	PowerSave        bool
	IdleAfter        time.Duration
	IdleSamplePeriod time.Duration
	// Mode selects absolute island mapping (the paper's technique) or
	// speed-dependent relative scrolling.
	Mode InputMode
	// SDAZ tunes the relative mode's gain curve; zero value uses the
	// defaults.
	SDAZ menu.SDAZ
	// ContextSensing enables the Section 4.3 extension: the ADXL311 is
	// sampled and a posture/hand context is classified and telemetered.
	ContextSensing bool
	// AutoHandedness (with ContextSensing and a slidable layout) mirrors
	// the select/back roles when a left-handed grip is detected.
	AutoHandedness bool
	// Trace is the device's flight recorder; every emitted frame records a
	// firmware.sample span event (the birth of its trace) on it. Nil
	// disables tracing.
	Trace *tracing.Recorder
}

// DefaultConfig is the prototype firmware build.
func DefaultConfig() Config {
	return Config{
		SamplePeriod:    40 * time.Millisecond, // 25 Hz
		Filter:          MedianEMA,
		FilterAlpha:     0.35,
		Mapping:         mapping.DefaultConfig(1),
		DebugPeriod:     200 * time.Millisecond,
		HeartbeatPeriod: time.Second,
		SelectButton:    buttons.TopRight, // "most conveniently operated with the thumb"
		BackButton:      buttons.LeftUpper,
	}
}

// Sender transmits a telemetry payload; in the assembled device this is the
// RF link, in unit tests a recording stub.
type Sender interface {
	Send(payload []byte) (time.Duration, error)
}

// Stats counts firmware activity.
type Stats struct {
	Cycles        uint64
	ScrollEvents  uint64
	SelectEvents  uint64
	LevelChanges  uint64
	IslandFlicker uint64 // cursor changes that immediately reverted
	TxErrors      uint64
	DisplayWrites uint64
	// ADCReads counts analog conversions (distance channels + battery).
	ADCReads uint64
	// IslandSwitches counts active-island changes at the mapper;
	// HysteresisHolds counts selections the hysteresis band retained after
	// the voltage left the strict island bounds (rejected flickers).
	IslandSwitches  uint64
	HysteresisHolds uint64
	// FramesSent counts telemetry payloads handed to the transmitter.
	FramesSent uint64
}

// counters are the firmware's internal counters. They are atomic so a
// telemetry reporter may snapshot a running fleet from another goroutine;
// the firmware itself is single-goroutine, so every add is uncontended.
type counters struct {
	cycles, scrollEvents, selectEvents, levelChanges atomic.Uint64
	islandFlicker, txErrors, displayWrites           atomic.Uint64
	adcReads, islandSwitches, hystHolds, framesSent  atomic.Uint64
}

func (c *counters) stats() Stats {
	return Stats{
		Cycles:          c.cycles.Load(),
		ScrollEvents:    c.scrollEvents.Load(),
		SelectEvents:    c.selectEvents.Load(),
		LevelChanges:    c.levelChanges.Load(),
		IslandFlicker:   c.islandFlicker.Load(),
		TxErrors:        c.txErrors.Load(),
		DisplayWrites:   c.displayWrites.Load(),
		ADCReads:        c.adcReads.Load(),
		IslandSwitches:  c.islandSwitches.Load(),
		HysteresisHolds: c.hystHolds.Load(),
		FramesSent:      c.framesSent.Load(),
	}
}

// Firmware is the device control loop.
type Firmware struct {
	cfg   Config
	board *smartits.Board
	menu  *menu.Menu
	// mapper is rebuilt in place on level changes; filter is built from
	// filters. Both are held by value, so a Firmware is one allocation.
	mapper  mapping.Mapper
	filter  Filter
	filters filterSet
	tx      Sender

	stats      counters
	lastMap    mapping.MapStats // last mirrored mapper counters
	ctx        contextState
	health     health
	power      powerState
	rel        relativeState
	seq        uint16
	lastDebug  time.Duration
	lastBeat   time.Duration
	prevIndex  int
	lastTopWin [][]byte // top-panel rows last drawn, reused; empty forces a redraw
	// topLevel and topCursor are the menu position lastTopWin shows.
	topLevel  *menu.Node
	topCursor int
	started   bool
	// txBuf is the reusable marshal scratch for send: the firmware emits a
	// frame every few virtual milliseconds for the whole run, so marshalling
	// into a fresh slice each time would dominate the device-side allocation
	// profile. Transports must not retain the payload past Send/SendTagged
	// (see rf.Transport); the ARQ layer copies what it queues.
	txBuf []byte
	// i2cBuf is the reusable command scratch for display writes: the debug
	// panel redraws five lines every DebugPeriod for the whole run. The
	// display copies what it keeps (i2c.Slave must not retain the payload).
	i2cBuf []byte
}

// Init builds, in place at fw, firmware bound to a board, a menu and a
// transmitter. tx may be nil for a device without a radio. A device holds
// its Firmware by value; the filter points into fw, so a Firmware must not
// be copied once built.
func (fw *Firmware) Init(cfg Config, board *smartits.Board, m *menu.Menu, tx Sender) error {
	if board == nil {
		return errors.New("firmware: board is required")
	}
	if m == nil {
		return errors.New("firmware: menu is required")
	}
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = DefaultConfig().SamplePeriod
	}
	if cfg.DebugPeriod <= 0 {
		cfg.DebugPeriod = DefaultConfig().DebugPeriod
	}
	if cfg.HeartbeatPeriod <= 0 {
		cfg.HeartbeatPeriod = DefaultConfig().HeartbeatPeriod
	}
	if cfg.SelectButton == 0 {
		cfg.SelectButton = buttons.TopRight
	}
	if cfg.BackButton == 0 {
		cfg.BackButton = buttons.LeftUpper
	}
	*fw = Firmware{
		cfg:       cfg,
		board:     board,
		menu:      m,
		tx:        tx,
		prevIndex: -1,
	}
	f, err := fw.filters.init(cfg.Filter, cfg.FilterAlpha)
	if err != nil {
		if cfg.Filter != 0 {
			return err
		}
		f, _ = fw.filters.init(MedianEMA, cfg.FilterAlpha)
	}
	fw.filter = f
	if cfg.ContextSensing {
		fw.ctx.detector = devctx.NewDetector(devctx.DefaultConfig())
	}
	fw.rel.sdaz = cfg.SDAZ
	if fw.rel.sdaz.GainHigh == 0 {
		fw.rel.sdaz = menu.DefaultSDAZ()
	}
	return fw.rebuildMapper()
}

// Stats returns a snapshot of the firmware counters.
func (fw *Firmware) Stats() Stats { return fw.stats.stats() }

// Collect contributes the firmware counters to a telemetry snapshot. In a
// fleet every device collects into the same fleet-wide names, so the
// snapshot carries aggregates.
func (fw *Firmware) Collect(s *telemetry.Snapshot) {
	st := fw.Stats()
	s.AddCounter(telemetry.MetricFwCycles, st.Cycles)
	s.AddCounter(telemetry.MetricFwADCReads, st.ADCReads)
	s.AddCounter(telemetry.MetricFwScrollEvents, st.ScrollEvents)
	s.AddCounter(telemetry.MetricFwSelectEvents, st.SelectEvents)
	s.AddCounter(telemetry.MetricFwLevelChanges, st.LevelChanges)
	s.AddCounter(telemetry.MetricFwIslandSwitches, st.IslandSwitches)
	s.AddCounter(telemetry.MetricFwHysteresisHolds, st.HysteresisHolds)
	s.AddCounter(telemetry.MetricFwIslandFlicker, st.IslandFlicker)
	s.AddCounter(telemetry.MetricFwFramesSent, st.FramesSent)
	s.AddCounter(telemetry.MetricFwTxErrors, st.TxErrors)
	s.AddCounter(telemetry.MetricFwDisplayWrites, st.DisplayWrites)
}

// Mapper returns the active island mapper. The pointer is stable; the
// mapper behind it is rebuilt in place on level changes.
func (fw *Firmware) Mapper() *mapping.Mapper { return &fw.mapper }

// Menu returns the navigated menu.
func (fw *Firmware) Menu() *menu.Menu { return fw.menu }

// rebuildMapper constructs an island mapping sized to the current menu
// level, exactly as the paper describes: "We first chose how many entities
// lie in a given data structure and then distributed these entities as
// described over the sensor range."
func (fw *Firmware) rebuildMapper() error {
	cfg := fw.cfg.Mapping
	if cfg.NearCm == 0 && cfg.FarCm == 0 {
		cfg = mapping.DefaultConfig(fw.menu.Len())
	}
	cfg.Entries = fw.menu.Len()
	t, err := islandTable(cfg, fw.board.Sensor)
	if err != nil {
		return fmt.Errorf("firmware: rebuild mapper: %w", err)
	}
	fw.mapper.Init(t)
	fw.lastMap = mapping.MapStats{}
	fw.filter.Reset()
	fw.resetRelative()
	fw.prevIndex = -1
	return nil
}

// islandKey is what an island table depends on: the mapping configuration
// and the sensor's characteristic, whose Ideal curve reads only A, B and C
// of the sensor configuration.
type islandKey struct {
	mapping mapping.Config
	sensor  gp2d120.Config
}

// islandTables guards the shared island tables. A table is read-only once
// built, so every device of a fleet, and every level of equal size it
// enters, maps over one table per key.
var (
	islandTablesMu sync.Mutex
	islandTables   = map[islandKey]*mapping.Table{}
)

// islandTable returns the shared island table for cfg over the sensor's
// ideal characteristic, building it on first use.
func islandTable(cfg mapping.Config, s *gp2d120.Sensor) (*mapping.Table, error) {
	key := islandKey{mapping: cfg, sensor: s.Config()}
	islandTablesMu.Lock()
	defer islandTablesMu.Unlock()
	if t, ok := islandTables[key]; ok {
		return t, nil
	}
	t, err := mapping.NewTable(cfg, s.Ideal)
	if err != nil {
		return nil, err
	}
	islandTables[key] = t
	return t, nil
}

// mirrorMapStats folds the mapper's counter deltas since the last cycle
// into the firmware counters (the mapper itself is reset on level changes,
// the firmware counters are not).
func (fw *Firmware) mirrorMapStats() {
	st := fw.mapper.Stats()
	if d := st.Switches - fw.lastMap.Switches; d != 0 {
		fw.stats.islandSwitches.Add(d)
	}
	if d := st.Holds - fw.lastMap.Holds; d != 0 {
		fw.stats.hystHolds.Add(d)
	}
	fw.lastMap = st
}

func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Step runs one firmware cycle at virtual time now. The cadence is owned by
// the caller (the scheduler in the assembled device, a plain loop in
// tests and benchmarks).
func (fw *Firmware) Step(now time.Duration) error {
	fw.stats.cycles.Add(1)

	// 1. Sample the distance channel (averaging the second sensor in
	// dual mode).
	code, err := fw.board.ADC.Read(smartits.ChanDistance)
	if err != nil {
		return fmt.Errorf("firmware: sample: %w", err)
	}
	fw.stats.adcReads.Add(1)
	raw := fw.board.ADC.Voltage(code)
	if fw.cfg.DualSensor && fw.board.Sensor2 != nil {
		code2, err := fw.board.ADC.Read(smartits.ChanDistance2)
		if err != nil {
			return fmt.Errorf("firmware: sample 2: %w", err)
		}
		fw.stats.adcReads.Add(1)
		raw = (raw + fw.board.ADC.Voltage(code2)) / 2
	}
	v := fw.filter.Apply(raw)

	// 1b. Classify the signal: beyond the range the sensor makes "no
	// measurement" and the cursor holds; near-zero means a dark or
	// disconnected sensor (hardware fault indicator).
	signal := fw.classifySignal(v)

	// 2. Map to an entry. Absolute mode uses the island mapping (between
	// islands nothing changes); relative mode steps the cursor by the
	// speed-scaled distance change.
	index, active := -1, false
	if signal == SignalOK {
		switch fw.cfg.Mode {
		case Relative:
			if dist, err := fw.board.Sensor.Distance(v); err == nil {
				if step := fw.relativeStep(dist, now); step != 0 {
					index = clampIndex(fw.menu.Cursor()+step, fw.menu.Len())
					active = true
				}
			}
		default:
			index, active = fw.mapper.Map(v)
			fw.mirrorMapStats()
		}
	} else {
		fw.resetRelative()
	}
	if active && index != fw.menu.Cursor() {
		if index == fw.prevIndex {
			fw.stats.islandFlicker.Add(1)
		}
		fw.prevIndex = fw.menu.Cursor()
		fw.menu.MoveTo(index)
		fw.stats.scrollEvents.Add(1)
		fw.noteActivity(now)
		fw.send(rf.Message{Kind: rf.MsgScroll, Index: int16(index)}, now)
	}

	// 2b. Context sensing (Section 4.3 extension): classify posture and
	// hand, adapting the button roles on a slidable layout.
	if err := fw.senseContext(now); err != nil {
		return err
	}

	// 3. Redraw the top display when the window changed.
	if err := fw.drawTop(); err != nil {
		return err
	}

	// 4. Buttons.
	for _, ev := range fw.board.Pad.Scan(now) {
		if ev.Kind != buttons.Press {
			continue
		}
		fw.noteActivity(now)
		switch ev.Button {
		case fw.cfg.SelectButton:
			if err := fw.handleSelect(now, ev.Button); err != nil {
				return err
			}
		case fw.cfg.BackButton:
			if err := fw.handleBack(now); err != nil {
				return err
			}
		}
	}

	// 5. Debug display and heartbeat on their own cadences.
	if now-fw.lastDebug >= fw.cfg.DebugPeriod || !fw.started {
		fw.lastDebug = now
		if err := fw.drawDebug(v, index, now); err != nil {
			return err
		}
	}
	if now-fw.lastBeat >= fw.cfg.HeartbeatPeriod {
		fw.lastBeat = now
		fw.send(rf.Message{Kind: rf.MsgHeartbeat}, now)
	}
	fw.updatePower(now)
	fw.started = true
	return nil
}

func (fw *Firmware) handleSelect(now time.Duration, b buttons.ID) error {
	err := fw.menu.Enter()
	switch {
	case err == nil:
		// Descended into a submenu: the level size changed, so the island
		// mapping is rebuilt for the new entry count.
		fw.stats.levelChanges.Add(1)
		fw.send(rf.Message{Kind: rf.MsgLevel, Index: int16(fw.menu.Depth())}, now)
		if err := fw.rebuildMapper(); err != nil {
			return err
		}
		fw.lastTopWin = fw.lastTopWin[:0]
		return fw.drawTop()
	case errors.Is(err, menu.ErrLeaf):
		fw.stats.selectEvents.Add(1)
		fw.send(rf.Message{
			Kind:   rf.MsgSelect,
			Index:  int16(fw.menu.Cursor()),
			Button: byte(b),
		}, now)
		return nil
	default:
		return fmt.Errorf("firmware: select: %w", err)
	}
}

func (fw *Firmware) handleBack(now time.Duration) error {
	err := fw.menu.Back()
	if errors.Is(err, menu.ErrAtRoot) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("firmware: back: %w", err)
	}
	fw.stats.levelChanges.Add(1)
	fw.send(rf.Message{Kind: rf.MsgLevel, Index: int16(fw.menu.Depth())}, now)
	if err := fw.rebuildMapper(); err != nil {
		return err
	}
	fw.lastTopWin = fw.lastTopWin[:0]
	return fw.drawTop()
}

// drawTop writes the menu window to the top display, skipping I2C traffic
// when nothing changed (the 100 kHz bus is the slowest path in the loop).
// A bus error degrades the UI (stale display) instead of halting the
// firmware; the write is retried on the next cycle.
//
// The menu tree is read-only while devices run, so a window last drawn
// whole at the same level and cursor is still on the panel and the title
// compare is skipped.
func (fw *Firmware) drawTop() error {
	level, cursor := fw.menu.Level(), fw.menu.Cursor()
	if len(fw.lastTopWin) > 0 && level == fw.topLevel && cursor == fw.topCursor {
		return nil
	}
	if fw.menu.WindowIs(display.TextLines, fw.lastTopWin) {
		return nil
	}
	fw.lastTopWin = fw.menu.AppendWindow(fw.lastTopWin[:0], display.TextLines)
	fw.topLevel, fw.topCursor = level, cursor
	fw.stats.displayWrites.Add(1)
	fw.i2cBuf = append(fw.i2cBuf[:0], display.CmdClear)
	if err := fw.board.Bus.Write(smartits.AddrTopDisplay, fw.i2cBuf); err != nil {
		fw.health.displayErrs++
		fw.lastTopWin = fw.lastTopWin[:0]
		return nil
	}
	for i, line := range fw.lastTopWin {
		fw.i2cBuf = append(append(fw.i2cBuf[:0], display.CmdSetLine, byte(i)), line...)
		if err := fw.board.Bus.Write(smartits.AddrTopDisplay, fw.i2cBuf); err != nil {
			fw.health.displayErrs++
			fw.lastTopWin = fw.lastTopWin[:0]
			return nil
		}
	}
	return nil
}

// drawDebug writes "additional state information" to the bottom display
// (paper Figure 1), as the study used it: filtered voltage, island index,
// menu depth/cursor and battery level.
func (fw *Firmware) drawDebug(v float64, island int, now time.Duration) error {
	battCode, err := fw.board.ADC.Read(smartits.ChanBattery)
	if err != nil {
		return fmt.Errorf("firmware: battery: %w", err)
	}
	fw.stats.adcReads.Add(1)
	batt := fw.board.ADC.Voltage(battCode) * 2 // undo divider
	fw.updateBattery(batt)
	fw.stats.displayWrites.Add(1)
	for i := 0; i < display.TextLines; i++ {
		fw.i2cBuf = fw.appendDebugLine(append(fw.i2cBuf[:0], display.CmdSetLine, byte(i)), i, v, island, batt)
		if err := fw.board.Bus.Write(smartits.AddrBottomDisplay, fw.i2cBuf); err != nil {
			fw.health.displayErrs++
			break
		}
	}
	// The state frame carries the real cycle tick like every other message
	// so the host can measure end-to-end pipeline latency from it.
	fw.send(rf.Message{
		Kind:      rf.MsgState,
		VoltageMV: uint16(v * 1000),
		Island:    int16(island),
		Index:     int16(fw.menu.Cursor()),
		Context:   fw.contextByte(),
	}, now)
	return nil
}

// appendDebugLine appends row i of the debug panel to b: a banner, the
// filtered voltage, the island index, menu depth and cursor, and a status
// line (signal fault, low battery, the sensed context or the battery level).
func (fw *Firmware) appendDebugLine(b []byte, i int, v float64, island int, batt float64) []byte {
	switch i {
	case 0:
		return append(b, "DistScroll dbg"...)
	case 1:
		return appendFixed(append(b, "V="...), v, 3)
	case 2:
		if fw.health.signal == SignalOutOfRange {
			// "no measurement can be made" — keep it within the 16-column
			// panel width.
			return append(b, "isle=no-meas"...)
		}
		return strconv.AppendInt(append(b, "isle="...), int64(island), 10)
	case 3:
		b = strconv.AppendInt(append(b, "lvl="...), int64(fw.menu.Depth()), 10)
		return strconv.AppendInt(append(b, " cur="...), int64(fw.menu.Cursor()), 10)
	}
	switch {
	case fw.health.signal == SignalFault:
		return append(b, SignalFault.String()...)
	case fw.health.lowBattery:
		return append(appendFixed(append(b, "LOW BAT "...), batt, 1), 'V')
	case fw.ctx.detector != nil:
		return append(b, fw.Context().String()...)
	}
	return append(appendFixed(append(b, "bat="...), batt, 1), 'V')
}

// fixedScale[p] is 10^p for the precisions appendFixed formats.
var fixedScale = [...]float64{1, 10, 100, 1000}

// appendFixed appends v with prec (1..3) decimals, byte for byte as
// strconv.AppendFloat(b, v, 'f', prec, 64) does, which rounds the exact
// binary value half to even. With an explicit precision that call always
// takes strconv's multi-precision path, ~265 ns against ~30 ns here on a
// 2-vCPU Intel Xeon.
//
// x = |v|·10^prec is rounded, but the FMA residual r = |v|·10^prec − x is
// exact, so the exact scaled value is x + r. With f = ⌊x⌋ and d = x−f−½
// (exact for x ≥ ¼, and far from zero below), the sign of the float sum
// d+r is the sign of the exact sum: round-to-nearest never rounds a
// nonzero sum to zero. Above ½ rounds up, below ½ down, and a tie to the
// even integer. NaN, ±Inf and |v| ≥ 1e9 go to strconv.
func appendFixed(b []byte, v float64, prec int) []byte {
	a := math.Abs(v)
	if !(a < 1e9) {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	if math.Signbit(v) {
		b = append(b, '-')
	}
	var n uint64
	if a >= 1e-6 { // below, a·10^prec < ½ rounds to 0; the residual never nears underflow
		scale := fixedScale[prec]
		x := float64(a * scale) // the conversion forbids fusing it into x-f
		f := math.Floor(x)
		n = uint64(f)
		if s := (x - f - 0.5) + math.FMA(a, scale, -x); s > 0 || s == 0 && n&1 == 1 {
			n++
		}
	}
	unit := uint64(fixedScale[prec])
	b = append(strconv.AppendUint(b, n/unit, 10), '.')
	frac := n % unit
	for u := unit / 10; u > 0; u /= 10 {
		b = append(b, byte('0'+frac/u%10))
	}
	return b
}

func (fw *Firmware) send(m rf.Message, now time.Duration) {
	if fw.tx == nil {
		return
	}
	m.Device = fw.cfg.DeviceID
	m.Seq = fw.seq
	fw.seq++
	m.AtMillis = uint32(now / time.Millisecond)
	// The frame's trace is born here: device id + seq + origin tick is the
	// context every later hop keys on.
	fw.cfg.Trace.Record(tracing.HopFirmwareSample, m.Seq, now, uint32(m.Kind), 0)
	fw.txBuf = m.AppendBinary(fw.txBuf[:0])
	payload := fw.txBuf
	var err error
	// AppendBinary always emits the v1 layout; tell the transport so its
	// sent-by-version accounting never has to sniff payload bytes.
	if vs, ok := fw.tx.(rf.VersionedSender); ok {
		_, err = vs.SendTagged(payload, rf.PayloadV1)
	} else {
		_, err = fw.tx.Send(payload)
	}
	if err != nil {
		fw.stats.txErrors.Add(1)
		return
	}
	fw.stats.framesSent.Add(1)
}
