package menu

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/hcilab/distscroll/internal/sim"
)

func phone(t *testing.T) *Menu {
	t.Helper()
	m, err := New(PhoneMenu())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil root accepted")
	}
	if _, err := New(Leaf("empty")); !errors.Is(err, ErrEmpty) {
		t.Fatal("leaf root accepted")
	}
}

func TestCursorMovement(t *testing.T) {
	m := phone(t)
	if m.Cursor() != 0 {
		t.Fatalf("initial cursor %d", m.Cursor())
	}
	if !m.MoveTo(3) || m.Cursor() != 3 {
		t.Fatalf("MoveTo(3): cursor %d", m.Cursor())
	}
	if m.MoveTo(3) {
		t.Fatal("MoveTo to same index reported movement")
	}
	m.MoveTo(99)
	if m.Cursor() != m.Len()-1 {
		t.Fatalf("clamp high: %d", m.Cursor())
	}
	m.MoveTo(-5)
	if m.Cursor() != 0 {
		t.Fatalf("clamp low: %d", m.Cursor())
	}
	m.Step(2)
	if m.Cursor() != 2 {
		t.Fatalf("Step: %d", m.Cursor())
	}
}

func TestEnterAndBack(t *testing.T) {
	m := phone(t)
	m.MoveTo(3) // Settings
	if err := m.Enter(); err != nil {
		t.Fatalf("enter Settings: %v", err)
	}
	if m.Depth() != 1 || m.Level().Title != "Settings" {
		t.Fatalf("depth %d level %q", m.Depth(), m.Level().Title)
	}
	if m.Cursor() != 0 {
		t.Fatal("cursor should reset on enter")
	}
	if err := m.Back(); err != nil {
		t.Fatalf("back: %v", err)
	}
	if m.Depth() != 0 {
		t.Fatalf("depth after back: %d", m.Depth())
	}
	// Back places the cursor on the entry just left.
	if m.Cursor() != 3 {
		t.Fatalf("cursor after back = %d, want 3", m.Cursor())
	}
}

func TestBackAtRoot(t *testing.T) {
	m := phone(t)
	if err := m.Back(); !errors.Is(err, ErrAtRoot) {
		t.Fatalf("back at root: %v", err)
	}
}

func TestEnterLeafRunsActionAndCounts(t *testing.T) {
	ran := false
	root := NewNode("r", Leaf("a"), NewNode("b"))
	root.Children[0].Action = func() { ran = true }
	m, err := New(root)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Enter()
	if !errors.Is(err, ErrLeaf) {
		t.Fatalf("enter leaf: %v", err)
	}
	if !ran {
		t.Fatal("leaf action did not run")
	}
	if m.Selections() != 1 {
		t.Fatalf("selections = %d", m.Selections())
	}
	if m.Depth() != 0 {
		t.Fatal("leaf enter changed level")
	}
}

func TestPathAndDepth(t *testing.T) {
	m := phone(t)
	m.MoveTo(3)
	if err := m.Enter(); err != nil {
		t.Fatal(err)
	}
	if err := m.Enter(); err != nil { // Tones
		t.Fatal(err)
	}
	e := m.CurrentEntry()
	if got := e.Path(); got != "Phone > Settings > Tones > Ringing tone" {
		t.Fatalf("path = %q", got)
	}
	if e.Depth() != 3 {
		t.Fatalf("depth = %d", e.Depth())
	}
}

func TestCountLeaves(t *testing.T) {
	root := PhoneMenu()
	if got := root.CountLeaves(); got != 29 {
		t.Fatalf("phone menu has %d leaves", got)
	}
	if Leaf("x").CountLeaves() != 1 {
		t.Fatal("leaf count")
	}
}

func TestResetToRoot(t *testing.T) {
	m := phone(t)
	m.MoveTo(3)
	if err := m.Enter(); err != nil {
		t.Fatal(err)
	}
	m.ResetToRoot()
	if m.Depth() != 0 || m.Cursor() != 0 {
		t.Fatal("reset failed")
	}
}

func TestWindowCentersCursor(t *testing.T) {
	m, err := New(FlatMenu(20))
	if err != nil {
		t.Fatal(err)
	}
	m.MoveTo(10)
	win := m.Window(5)
	if len(win) != 5 {
		t.Fatalf("window size %d", len(win))
	}
	found := false
	for _, line := range win {
		if strings.HasPrefix(line, "> ") && strings.Contains(line, "Entry 11") {
			found = true
		}
	}
	if !found {
		t.Fatalf("cursor row missing: %v", win)
	}
}

func TestWindowAtEdges(t *testing.T) {
	m, err := New(FlatMenu(20))
	if err != nil {
		t.Fatal(err)
	}
	win := m.Window(5)
	if !strings.Contains(win[0], "Entry 01") {
		t.Fatalf("top edge window: %v", win)
	}
	m.MoveTo(19)
	win = m.Window(5)
	if !strings.Contains(win[len(win)-1], "Entry 20") {
		t.Fatalf("bottom edge window: %v", win)
	}
	// Short level: window no longer than the level.
	small, err := New(FlatMenu(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(small.Window(5)); got != 3 {
		t.Fatalf("short window size %d", got)
	}
}

func TestRandomWalkInvariants(t *testing.T) {
	// Property: any sequence of navigation operations keeps the cursor
	// within bounds and depth consistent with the level's Depth().
	rng := sim.NewRand(5)
	f := func(_ uint8) bool {
		m, err := New(PhoneMenu())
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			switch rng.Intn(4) {
			case 0:
				m.MoveTo(rng.Intn(10) - 2)
			case 1:
				m.Step(rng.Intn(5) - 2)
			case 2:
				_ = m.Enter()
			case 3:
				_ = m.Back()
			}
			if m.Cursor() < 0 || m.Cursor() >= m.Len() {
				return false
			}
			if m.Depth() != m.Level().Depth() {
				return false
			}
			if m.Len() == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFixtures(t *testing.T) {
	for _, tc := range []struct {
		name string
		root *Node
		min  int
	}{
		{"phone", PhoneMenu(), 6},
		{"lab", LabProtocolMenu(), 3},
		{"stock", StocktakingMenu(), 4},
	} {
		if got := len(tc.root.Children); got < tc.min {
			t.Errorf("%s fixture has %d top-level entries, want >= %d", tc.name, got, tc.min)
		}
	}
	if got := len(FlatMenu(37).Children); got != 37 {
		t.Errorf("flat menu size %d", got)
	}
}

// TestWindowIsMatchesWindow checks WindowIs against the definition it
// replaces, slices.Equal(Window(n), prev), while the menu is navigated and
// edited under it: cursor moves, descents and ascents, retitled entries,
// added children and levels shorter than the window. The prev candidates
// are the windows the firmware would hold (older windows, nil) and
// near-misses of the current one.
func TestWindowIsMatchesWindow(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewPCG(seed, 5))
		root := PhoneMenu()
		root.AddChild(NewNode("Short", Leaf("one"), Leaf("two")))
		m, err := New(root)
		if err != nil {
			t.Fatal(err)
		}
		var held [][]string
		for op := 0; op < 300; op++ {
			switch k := r.IntN(10); {
			case k < 4:
				m.MoveTo(r.IntN(m.Len()+2) - 1)
			case k < 5:
				_ = m.Enter()
			case k < 6:
				_ = m.Back()
			case k < 8:
				e := m.Entries()[r.IntN(m.Len())]
				e.Title = []string{"", "x", "> x", "  ", e.Title + "!", "Messages"}[r.IntN(6)]
			default:
				m.Level().AddChild(Leaf(fmt.Sprintf("new %d", op)))
			}
			for _, n := range []int{-1, 0, 1, 2, 5, 9} {
				win := m.Window(n)
				cands := append([][]string{nil, {}, win, win[:len(win)-1]}, held...)
				for i := range win {
					c := slices.Clone(win)
					c[i] += " "
					cands = append(cands, c)
					c = slices.Clone(win)
					c[i] = strings.Replace(c[i], ">", " ", 1)
					cands = append(cands, c)
				}
				for _, prev := range cands {
					if got, want := m.WindowIs(n, prev), slices.Equal(win, prev); got != want {
						t.Fatalf("seed %d op %d: WindowIs(%d, %q) = %v, Window = %q", seed, op, n, prev, got, win)
					}
				}
			}
			held = append(held, m.Window(5))
			if len(held) > 4 {
				held = held[1:]
			}
		}
	}
}

func TestWindowIsZeroAlloc(t *testing.T) {
	m, err := New(PhoneMenu())
	if err != nil {
		t.Fatal(err)
	}
	m.MoveTo(2)
	win := m.Window(5)
	allocs := testing.AllocsPerRun(100, func() {
		if !m.WindowIs(5, win) {
			t.Fatal("window changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("WindowIs allocates %.1f times", allocs)
	}
}
