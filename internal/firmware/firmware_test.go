package firmware

import (
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/buttons"
	"github.com/hcilab/distscroll/internal/mapping"
	"github.com/hcilab/distscroll/internal/menu"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/sim"
	"github.com/hcilab/distscroll/internal/smartits"
)

// recorder captures firmware telemetry without a radio channel.
type recorder struct {
	msgs []rf.Message
}

func (r *recorder) Send(payload []byte) (time.Duration, error) {
	var m rf.Message
	if err := m.UnmarshalBinary(payload); err != nil {
		return 0, err
	}
	r.msgs = append(r.msgs, m)
	return 0, nil
}

func (r *recorder) kinds(k rf.MsgKind) []rf.Message {
	var out []rf.Message
	for _, m := range r.msgs {
		if m.Kind == k {
			out = append(out, m)
		}
	}
	return out
}

type rig struct {
	board *smartits.Board
	fw    *Firmware
	menu  *menu.Menu
	rec   *recorder
	now   time.Duration
}

func newRig(t *testing.T, root *menu.Node, cfg Config) *rig {
	t.Helper()
	boardCfg := smartits.DefaultConfig()
	boardCfg.Sensor.NoiseSD = 0 // deterministic unless a test wants noise
	board, err := smartits.Assemble(boardCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := menu.New(root)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	fw, err := New(cfg, board, m, rec)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{board: board, fw: fw, menu: m, rec: rec}
}

// steps runs n firmware cycles at the sample period.
func (r *rig) steps(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		r.now += 40 * time.Millisecond
		if err := r.fw.Step(r.now); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
}

func TestScrollFollowsDistance(t *testing.T) {
	r := newRig(t, menu.FlatMenu(10), DefaultConfig())
	target := 7
	d, err := r.fw.Mapper().DistanceFor(target)
	if err != nil {
		t.Fatal(err)
	}
	r.board.SetDistance(d)
	r.steps(t, 20)
	if r.menu.Cursor() != target {
		t.Fatalf("cursor = %d, want %d", r.menu.Cursor(), target)
	}
	scrolls := r.rec.kinds(rf.MsgScroll)
	if len(scrolls) == 0 {
		t.Fatal("no scroll telemetry")
	}
	if got := int(scrolls[len(scrolls)-1].Index); got != target {
		t.Fatalf("last scroll index = %d", got)
	}
}

func TestBetweenIslandsCursorHolds(t *testing.T) {
	r := newRig(t, menu.FlatMenu(5), DefaultConfig())
	d, err := r.fw.Mapper().DistanceFor(2)
	if err != nil {
		t.Fatal(err)
	}
	r.board.SetDistance(d)
	r.steps(t, 10)
	if r.menu.Cursor() != 2 {
		t.Fatalf("setup: cursor %d", r.menu.Cursor())
	}
	// Move into the gap between islands 2 and 3: cursor must hold.
	d3, err := r.fw.Mapper().DistanceFor(3)
	if err != nil {
		t.Fatal(err)
	}
	r.board.SetDistance((d + d3) / 2)
	r.steps(t, 10)
	if r.menu.Cursor() != 2 {
		t.Fatalf("cursor drifted in gap: %d", r.menu.Cursor())
	}
}

func TestSelectDescendsAndRebuildsMapper(t *testing.T) {
	r := newRig(t, menu.PhoneMenu(), DefaultConfig())
	// Root has 6 entries.
	if got := r.fw.Mapper().Config().Entries; got != 6 {
		t.Fatalf("root mapper entries = %d", got)
	}
	// Cursor to Settings (index 3) and press select.
	d, err := r.fw.Mapper().DistanceFor(3)
	if err != nil {
		t.Fatal(err)
	}
	r.board.SetDistance(d)
	r.steps(t, 10)
	r.board.Pad.Set(buttons.TopRight, true, r.now)
	r.now += 30 * time.Millisecond
	if err := r.fw.Step(r.now); err != nil {
		t.Fatal(err)
	}
	r.board.Pad.Set(buttons.TopRight, false, r.now)
	r.steps(t, 3)

	if r.menu.Depth() != 1 {
		t.Fatalf("depth = %d", r.menu.Depth())
	}
	// Settings has 5 entries: the mapper must be rebuilt.
	if got := r.fw.Mapper().Config().Entries; got != 5 {
		t.Fatalf("submenu mapper entries = %d", got)
	}
	if len(r.rec.kinds(rf.MsgLevel)) == 0 {
		t.Fatal("no level telemetry")
	}
	if r.fw.Stats().LevelChanges != 1 {
		t.Fatalf("level changes = %d", r.fw.Stats().LevelChanges)
	}
}

func TestSelectLeafEmitsTelemetry(t *testing.T) {
	r := newRig(t, menu.FlatMenu(5), DefaultConfig())
	d, err := r.fw.Mapper().DistanceFor(1)
	if err != nil {
		t.Fatal(err)
	}
	r.board.SetDistance(d)
	r.steps(t, 10)
	r.board.Pad.Set(buttons.TopRight, true, r.now)
	r.now += 30 * time.Millisecond
	if err := r.fw.Step(r.now); err != nil {
		t.Fatal(err)
	}
	sel := r.rec.kinds(rf.MsgSelect)
	if len(sel) != 1 || sel[0].Index != 1 {
		t.Fatalf("select telemetry: %+v", sel)
	}
	if r.fw.Stats().SelectEvents != 1 {
		t.Fatalf("select events = %d", r.fw.Stats().SelectEvents)
	}
	if r.menu.Selections() != 1 {
		t.Fatalf("menu selections = %d", r.menu.Selections())
	}
}

func TestBackButton(t *testing.T) {
	r := newRig(t, menu.PhoneMenu(), DefaultConfig())
	// Enter Messages (cursor starts elsewhere: move to index 0 first).
	d, err := r.fw.Mapper().DistanceFor(0)
	if err != nil {
		t.Fatal(err)
	}
	r.board.SetDistance(d)
	r.steps(t, 10)
	r.board.Pad.Set(buttons.TopRight, true, r.now)
	r.now += 30 * time.Millisecond
	if err := r.fw.Step(r.now); err != nil {
		t.Fatal(err)
	}
	r.board.Pad.Set(buttons.TopRight, false, r.now)
	r.steps(t, 3)
	if r.menu.Depth() != 1 {
		t.Fatalf("depth = %d", r.menu.Depth())
	}
	// Back at the root must be a no-op error-wise.
	r.board.Pad.Set(buttons.LeftUpper, true, r.now)
	r.now += 30 * time.Millisecond
	if err := r.fw.Step(r.now); err != nil {
		t.Fatal(err)
	}
	r.board.Pad.Set(buttons.LeftUpper, false, r.now)
	r.steps(t, 3)
	if r.menu.Depth() != 0 {
		t.Fatalf("depth after back = %d", r.menu.Depth())
	}
	// Press back again at root: must not error.
	r.board.Pad.Set(buttons.LeftUpper, true, r.now)
	r.now += 30 * time.Millisecond
	if err := r.fw.Step(r.now); err != nil {
		t.Fatalf("back at root errored: %v", err)
	}
}

func TestTopDisplayShowsWindow(t *testing.T) {
	r := newRig(t, menu.PhoneMenu(), DefaultConfig())
	d, err := r.fw.Mapper().DistanceFor(0)
	if err != nil {
		t.Fatal(err)
	}
	r.board.SetDistance(d)
	r.steps(t, 10)
	out := r.board.Top.Render()
	if !strings.Contains(out, "> Messages") {
		t.Fatalf("top display:\n%s", out)
	}
}

func TestDebugDisplayContents(t *testing.T) {
	r := newRig(t, menu.FlatMenu(5), DefaultConfig())
	r.steps(t, 10)
	out := r.board.Bottom.Render()
	for _, want := range []string{"V=", "isle=", "lvl=", "bat="} {
		if !strings.Contains(out, want) {
			t.Fatalf("debug display missing %q:\n%s", want, out)
		}
	}
}

func TestDisplayWritesSkippedWhenUnchanged(t *testing.T) {
	r := newRig(t, menu.FlatMenu(5), DefaultConfig())
	d, err := r.fw.Mapper().DistanceFor(2)
	if err != nil {
		t.Fatal(err)
	}
	r.board.SetDistance(d)
	r.steps(t, 5)
	frames := r.board.Top.Frames()
	// Holding still: no further top-display traffic.
	r.steps(t, 20)
	if got := r.board.Top.Frames(); got != frames {
		t.Fatalf("display rewritten while idle: %d -> %d", frames, got)
	}
}

func TestHeartbeatCadence(t *testing.T) {
	r := newRig(t, menu.FlatMenu(5), DefaultConfig())
	r.steps(t, 100) // 4 s at 25 Hz
	beats := r.rec.kinds(rf.MsgHeartbeat)
	if len(beats) < 3 || len(beats) > 5 {
		t.Fatalf("heartbeats = %d over 4 s", len(beats))
	}
}

func TestSequenceNumbersMonotone(t *testing.T) {
	r := newRig(t, menu.FlatMenu(10), DefaultConfig())
	d, err := r.fw.Mapper().DistanceFor(9)
	if err != nil {
		t.Fatal(err)
	}
	r.board.SetDistance(d)
	r.steps(t, 50)
	for i := 1; i < len(r.rec.msgs); i++ {
		if r.rec.msgs[i].Seq != r.rec.msgs[i-1].Seq+1 {
			t.Fatalf("seq gap at %d: %d -> %d", i, r.rec.msgs[i-1].Seq, r.rec.msgs[i].Seq)
		}
	}
}

func TestNoRadioIsFine(t *testing.T) {
	boardCfg := smartits.DefaultConfig()
	board, err := smartits.Assemble(boardCfg, sim.NewRand(1))
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
	for i := 1; i <= 10; i++ {
		if err := fw.Step(time.Duration(i) * 40 * time.Millisecond); err != nil {
			t.Fatalf("radio-less step: %v", err)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	m, err := menu.New(menu.FlatMenu(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(DefaultConfig(), nil, m, nil); err == nil {
		t.Fatal("nil board accepted")
	}
	board, err := smartits.Assemble(smartits.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(DefaultConfig(), board, nil, nil); err == nil {
		t.Fatal("nil menu accepted")
	}
}

func TestCycleCounter(t *testing.T) {
	r := newRig(t, menu.FlatMenu(3), DefaultConfig())
	r.steps(t, 17)
	if got := r.fw.Stats().Cycles; got != 17 {
		t.Fatalf("cycles = %d", got)
	}
}

// TestDrawTopZeroAlloc pins the top-panel redraw: once the window rows and
// the I2C scratch have grown to the level's titles, a cursor move redraws
// the panel (every row rewritten over the bus) without allocating.
func TestDrawTopZeroAlloc(t *testing.T) {
	r := newRig(t, menu.FlatMenu(20), DefaultConfig())
	for i := 0; i < r.menu.Len(); i++ {
		r.menu.MoveTo(i)
		if err := r.fw.drawTop(); err != nil {
			t.Fatal(err)
		}
	}
	i, frames := 0, r.board.Top.Frames()
	allocs := testing.AllocsPerRun(100, func() {
		i = (i + 7) % r.menu.Len()
		r.menu.MoveTo(i)
		if err := r.fw.drawTop(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("top-panel redraw allocates %.1f times after warm-up", allocs)
	}
	if r.board.Top.Frames() == frames {
		t.Fatal("cursor moves did not redraw the top panel")
	}
	if got := r.board.Top.Line(2); !strings.HasPrefix(got, "> ") {
		t.Fatalf("centre row %q is not the cursor row", got)
	}
}

// TestIslandTableFollowsSensor checks the shared island-table cache is keyed
// by the sensor characteristic: firmwares on sensors with different curves
// map over their own sensor's islands, and equal sensors share one table.
func TestIslandTableFollowsSensor(t *testing.T) {
	build := func(a float64) *Firmware {
		boardCfg := smartits.DefaultConfig()
		boardCfg.Sensor.A = a
		board, err := smartits.Assemble(boardCfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := menu.New(menu.FlatMenu(8))
		if err != nil {
			t.Fatal(err)
		}
		fw, err := New(DefaultConfig(), board, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mapping.New(mapping.DefaultConfig(8), board.Sensor.Ideal)
		if err != nil {
			t.Fatal(err)
		}
		if got := fw.Mapper().Islands(); !slices.Equal(got, want.Islands()) {
			t.Fatalf("A=%g: firmware maps over %+v, want %+v", a, got, want.Islands())
		}
		return fw
	}
	a, b := build(13), build(11)
	if a.Mapper().Table == b.Mapper().Table {
		t.Fatal("sensors with different curves share an island table")
	}
	if build(13).Mapper().Table != a.Mapper().Table {
		t.Fatal("equal sensors build separate island tables")
	}
}
