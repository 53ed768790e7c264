package firmware

import (
	"strconv"
	"strings"
	"testing"

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
