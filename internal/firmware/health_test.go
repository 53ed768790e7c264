package firmware

import (
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/adc"
	"github.com/hcilab/distscroll/internal/menu"
	"github.com/hcilab/distscroll/internal/smartits"
)

func TestOutOfRangeHoldsCursor(t *testing.T) {
	r := newRig(t, menu.FlatMenu(8), DefaultConfig())
	d, err := r.fw.Mapper().DistanceFor(4)
	if err != nil {
		t.Fatal(err)
	}
	r.board.SetDistance(d)
	r.steps(t, 10)
	if r.menu.Cursor() != 4 {
		t.Fatalf("setup cursor %d", r.menu.Cursor())
	}
	// Walk away: beyond ~40 cm the sensor floors out ("no measurement").
	// The filtered signal sweeps through the far entries on the way out —
	// exactly what a user moving the device away experiences — and then
	// the cursor must HOLD wherever it was when the signal vanished.
	r.board.SetDistance(60)
	r.steps(t, 20)
	if r.fw.Signal() != SignalOutOfRange {
		t.Fatalf("signal = %v", r.fw.Signal())
	}
	held := r.menu.Cursor()
	r.steps(t, 30)
	if r.menu.Cursor() != held {
		t.Fatalf("cursor moved while out of range: %d -> %d", held, r.menu.Cursor())
	}
	out := r.board.Bottom.Render()
	if !strings.Contains(out, "no-meas") {
		t.Fatalf("debug display:\n%s", out)
	}
	// Coming back recovers.
	r.board.SetDistance(d)
	r.steps(t, 10)
	if r.fw.Signal() != SignalOK {
		t.Fatalf("signal after recovery = %v", r.fw.Signal())
	}
}

func TestSensorFaultDetected(t *testing.T) {
	cfg := smartits.DefaultConfig()
	cfg.Sensor.NoiseSD = 0
	board, err := smartits.Assemble(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := menu.New(menu.FlatMenu(5))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(DefaultConfig(), board, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{board: board, fw: fw, menu: m, rec: &recorder{}}
	// A dead sensor reads 0 V: simulate by unplugging the channel.
	if err := board.ADC.Connect(smartits.ChanDistance, nil); err != nil {
		t.Fatal(err)
	}
	r.steps(t, 10)
	if fw.Signal() != SignalFault {
		t.Fatalf("signal = %v", fw.Signal())
	}
	if fw.SensorFaults() != 1 {
		t.Fatalf("faults = %d", fw.SensorFaults())
	}
	out := board.Bottom.Render()
	if !strings.Contains(out, "SENSOR FAULT") {
		t.Fatalf("debug display:\n%s", out)
	}
}

func TestLowBatteryWarningLatches(t *testing.T) {
	r := newRig(t, menu.FlatMenu(5), DefaultConfig())
	r.board.DrainBattery(3) // 9 -> 6 V
	r.steps(t, 10)
	if !r.fw.LowBattery() {
		t.Fatalf("no low-battery latch at %.1f V", r.fw.BatteryVolts())
	}
	out := r.board.Bottom.Render()
	if !strings.Contains(out, "LOW BAT") {
		t.Fatalf("debug display:\n%s", out)
	}
}

func TestDisplayBusErrorDegradesInsteadOfHalting(t *testing.T) {
	r := newRig(t, menu.FlatMenu(8), DefaultConfig())
	r.steps(t, 5)
	// The ribbon cable works loose: the top display drops off the bus.
	r.board.Bus.Detach(smartits.AddrTopDisplay)
	d, err := r.fw.Mapper().DistanceFor(6)
	if err != nil {
		t.Fatal(err)
	}
	r.board.SetDistance(d)
	r.steps(t, 20) // must not error
	if r.fw.DisplayErrors() == 0 {
		t.Fatal("display errors not counted")
	}
	// Scrolling still works: the cursor followed the distance.
	if r.menu.Cursor() != 6 {
		t.Fatalf("cursor = %d", r.menu.Cursor())
	}
}

func TestDisplayRecoversAfterReattach(t *testing.T) {
	r := newRig(t, menu.FlatMenu(8), DefaultConfig())
	r.steps(t, 5)
	r.board.Bus.Detach(smartits.AddrTopDisplay)
	d, err := r.fw.Mapper().DistanceFor(6)
	if err != nil {
		t.Fatal(err)
	}
	r.board.SetDistance(d)
	r.steps(t, 5)
	// Reattach: the next cycle repaints because lastTopWin was emptied.
	if err := r.board.Bus.Attach(smartits.AddrTopDisplay, r.board.Top); err != nil {
		t.Fatal(err)
	}
	r.steps(t, 5)
	out := r.board.Top.Render()
	if !strings.Contains(out, "> Entry 07") {
		t.Fatalf("display after recovery:\n%s", out)
	}
}

func TestSignalStateStrings(t *testing.T) {
	for _, s := range []SignalState{SignalOK, SignalOutOfRange, SignalFault} {
		if s.String() == "" {
			t.Fatalf("state %d has empty name", s)
		}
	}
}

// refDebugLines is the debug panel as string concatenation formats it; the
// firmware appends the same text straight into its I2C command buffer.
func refDebugLines(fw *Firmware, v float64, island int, batt float64) []string {
	statusLine := "bat=" + strconv.FormatFloat(batt, 'f', 1, 64) + "V"
	switch {
	case fw.health.signal == SignalFault:
		statusLine = SignalFault.String()
	case fw.health.lowBattery:
		statusLine = "LOW BAT " + strconv.FormatFloat(batt, 'f', 1, 64) + "V"
	case fw.ctx.detector != nil:
		statusLine = fw.Context().String()
	}
	isleLine := "isle=" + strconv.Itoa(island)
	if fw.health.signal == SignalOutOfRange {
		isleLine = "isle=no-meas"
	}
	return []string{
		"DistScroll dbg",
		"V=" + strconv.FormatFloat(v, 'f', 3, 64),
		isleLine,
		"lvl=" + strconv.Itoa(fw.menu.Depth()) + " cur=" + strconv.Itoa(fw.menu.Cursor()),
		statusLine,
	}
}

func TestDebugLinesMatchReference(t *testing.T) {
	plain := newRig(t, menu.PhoneMenu(), DefaultConfig())
	cfg := DefaultConfig()
	cfg.ContextSensing = true
	sensing := newRig(t, menu.PhoneMenu(), cfg)
	for _, r := range []*rig{plain, sensing} {
		r.steps(t, 3)
		if err := r.menu.Enter(); err != nil {
			t.Fatal(err)
		}
		r.menu.MoveTo(2)
		for _, sig := range []SignalState{SignalOK, SignalOutOfRange, SignalFault} {
			for _, low := range []bool{false, true} {
				r.fw.health.signal, r.fw.health.lowBattery = sig, low
				for _, v := range []float64{0, 0.0004, 1.23456, 2.9995, -0.5} {
					for _, island := range []int{-1, 0, 17} {
						for _, batt := range []float64{9, 6.04, 5.95} {
							want := refDebugLines(r.fw, v, island, batt)
							for i, line := range want {
								got := string(r.fw.appendDebugLine([]byte("pre"), i, v, island, batt))
								if got != "pre"+line {
									t.Fatalf("signal %v low %v v %v island %d batt %v row %d: %q, want %q",
										sig, low, v, island, batt, i, got, "pre"+line)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestAppendFixedMatchesStrconv pins the debug panel's number formatter
// byte for byte to strconv.FormatFloat(v, 'f', prec, 64) at the two
// precisions the panel uses, over every ADC code's volts (and twice that,
// the battery), exact decimal ties and their float neighbours, seeded
// random values in ±12 V and the special values strconv handles itself.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		for _, prec := range []int{1, 3} {
			got := string(appendFixed([]byte("pre"), v, prec))
			if want := "pre" + strconv.FormatFloat(v, 'f', prec, 64); got != want {
				t.Fatalf("appendFixed(%v [%#x], %d) = %q, want %q", v, math.Float64bits(v), prec, got, want)
			}
		}
	}
	around := func(v float64) {
		t.Helper()
		for _, w := range []float64{v, -v} {
			check(math.Nextafter(w, math.Inf(-1)))
			check(w)
			check(math.Nextafter(w, math.Inf(1)))
		}
	}
	for code := 0; code <= adc.MaxCode; code++ {
		v := float64(code) / float64(adc.MaxCode) * adc.DefaultVref
		around(v)
		around(v * 2)
	}
	for k := 0; k <= 24000; k++ {
		around(float64(k) / 2000)
		if k <= 240 {
			around(float64(k) / 20)
		}
	}
	r := rand.New(rand.NewPCG(25, 96040))
	for i := 0; i < 200_000; i++ {
		check((r.Float64()*2 - 1) * 12)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), -0.0001, 0.0004, 1e-300, -5e-324,
		999_999_999.9996, 1e9, 1e12, -1e12, math.NaN(), math.Inf(1), math.Inf(-1)} {
		check(v)
	}
}

// discard is a transmitter that keeps nothing.
type discard struct{}

func (discard) Send([]byte) (time.Duration, error) { return 0, nil }

// TestDrawDebugZeroAlloc pins the bottom-panel refresh: the battery read,
// five debug rows formatted into the I2C scratch and written over the bus,
// and the state frame allocate nothing once the scratch has grown.
func TestDrawDebugZeroAlloc(t *testing.T) {
	r := newRig(t, menu.PhoneMenu(), DefaultConfig())
	r.fw.tx = discard{}
	r.steps(t, 3)
	vs := []float64{1.2345, 0, -0.0001, 2.9995, 0.8765}
	i, frames := 0, r.board.Bottom.Frames()
	allocs := testing.AllocsPerRun(100, func() {
		i = (i + 1) % len(vs)
		if err := r.fw.drawDebug(vs[i], i, r.now); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("debug-panel refresh allocates %.1f times", allocs)
	}
	if r.board.Bottom.Frames() == frames {
		t.Fatal("debug panel was not redrawn")
	}
	if got, want := r.board.Bottom.Line(1), "V="+strconv.FormatFloat(vs[i], 'f', 3, 64); got != want {
		t.Fatalf("voltage row %q, want %q", got, want)
	}
}
