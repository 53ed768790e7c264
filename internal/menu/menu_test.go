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
	win := appendWindow(m, 5)
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
	win := appendWindow(m, 5)
	if !strings.Contains(win[0], "Entry 01") {
		t.Fatalf("top edge window: %v", win)
	}
	m.MoveTo(19)
	win = appendWindow(m, 5)
	if !strings.Contains(win[len(win)-1], "Entry 20") {
		t.Fatalf("bottom edge window: %v", win)
	}
	// Short level: window no longer than the level.
	small, err := New(FlatMenu(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(appendWindow(small, 5)); got != 3 {
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

// window is the string-building definition of the top-panel window that
// AppendWindow and WindowIs implement on reused byte rows: lines rows of
// the current level centred on the cursor, "> " before the selected row and
// "  " before the others.
func window(m *Menu, lines int) []string {
	start, end := m.windowSpan(lines)
	out := make([]string, 0, end-start)
	for i := start; i < end; i++ {
		out = append(out, m.rowPrefix(i)+m.level.Children[i].Title)
	}
	return out
}

// windowIs is the string form of WindowIs: whether window(m, lines) would
// equal prev, compared entry by entry without building it.
func windowIs(m *Menu, lines int, prev []string) bool {
	start, end := m.windowSpan(lines)
	if len(prev) != end-start {
		return false
	}
	for i := start; i < end; i++ {
		prefix, title, row := m.rowPrefix(i), m.level.Children[i].Title, prev[i-start]
		if len(row) != len(prefix)+len(title) || row[:len(prefix)] != prefix || row[len(prefix):] != title {
			return false
		}
	}
	return true
}

// appendWindow returns AppendWindow's rows as strings.
func appendWindow(m *Menu, lines int) []string {
	var out []string
	for _, row := range m.AppendWindow(nil, lines) {
		out = append(out, string(row))
	}
	return out
}

// byteRows converts string rows to the byte rows the firmware holds; nil
// stays nil.
func byteRows(rows []string) [][]byte {
	if rows == nil {
		return nil
	}
	out := make([][]byte, len(rows))
	for i, r := range rows {
		out[i] = []byte(r)
	}
	return out
}

// TestWindowIsMatchesWindow is the differential test of the byte-row window
// against its string definition while the menu is navigated and edited
// under it: cursor moves, descents and ascents, retitled entries, added
// children and levels shorter than the window. AppendWindow, into rows
// reused across the whole walk, must equal window(); WindowIs must agree
// with both windowIs and slices.Equal(window(), prev). The prev candidates
// are the windows the firmware would hold (older windows, nil) and
// near-misses of the current one.
func TestWindowIsMatchesWindow(t *testing.T) {
	var rows [][]byte
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
				win := window(m, n)
				rows = m.AppendWindow(rows[:0], n)
				if !slices.EqualFunc(rows, win, func(b []byte, s string) bool { return string(b) == s }) {
					t.Fatalf("seed %d op %d: AppendWindow(%d) = %q, window = %q", seed, op, n, rows, win)
				}
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
					want := slices.Equal(win, prev)
					if got := windowIs(m, n, prev); got != want {
						t.Fatalf("seed %d op %d: windowIs(%d, %q) = %v, window = %q", seed, op, n, prev, got, win)
					}
					if got := m.WindowIs(n, byteRows(prev)); got != want {
						t.Fatalf("seed %d op %d: WindowIs(%d, %q) = %v, window = %q", seed, op, n, prev, got, win)
					}
				}
			}
			held = append(held, window(m, 5))
			if len(held) > 4 {
				held = held[1:]
			}
		}
	}
}

// TestEnterLeafZeroAlloc pins the leaf-selection path: Enter on a leaf
// returns the ErrLeaf sentinel without building an error per selection.
func TestEnterLeafZeroAlloc(t *testing.T) {
	m, err := New(FlatMenu(4))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.Enter(); err != ErrLeaf {
			t.Fatalf("enter leaf: %v, want ErrLeaf", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Enter on a leaf allocates %.1f times", allocs)
	}
}

func TestWindowIsZeroAlloc(t *testing.T) {
	m, err := New(PhoneMenu())
	if err != nil {
		t.Fatal(err)
	}
	m.MoveTo(2)
	rows := m.AppendWindow(nil, 5)
	allocs := testing.AllocsPerRun(100, func() {
		if !m.WindowIs(5, rows) {
			t.Fatal("window changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("WindowIs allocates %.1f times", allocs)
	}
}

// TestAppendWindowZeroAlloc pins the redraw path: once the rows have grown
// to the level's titles, rebuilding the window after a cursor move reuses
// them.
func TestAppendWindowZeroAlloc(t *testing.T) {
	m, err := New(FlatMenu(20))
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]byte
	for i := 0; i < m.Len(); i++ {
		m.MoveTo(i)
		rows = m.AppendWindow(rows[:0], 5)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i = (i + 7) % m.Len()
		m.MoveTo(i)
		rows = m.AppendWindow(rows[:0], 5)
	})
	if allocs != 0 {
		t.Fatalf("AppendWindow allocates %.1f times after warm-up", allocs)
	}
}
