// Package menu provides the hierarchical data structures the DistScroll
// navigates: menu trees with a cursor, windowed rendering onto the 5-line
// display, chunked access for long menus (paper Section 7: "How to scroll
// long menus? A possible solution could be similar to the one suggested in
// [6]", i.e. speed-dependent automatic zooming) and the fictive mobile
// phone menu used in the initial user study.
package menu

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Node is one entry of a hierarchical menu. A tree holds no navigation
// state (that lives in Menu), so many menus may navigate one tree; a tree
// shared that way, as a fleet's devices share theirs, must not be edited
// once they are built.
type Node struct {
	Title    string
	Children []*Node
	parent   *Node
	// Action is an optional payload invoked on selection of a leaf.
	Action func()
}

// NewNode returns a node with the given title and children, wiring parent
// pointers.
func NewNode(title string, children ...*Node) *Node {
	n := &Node{Title: title, Children: children}
	for _, c := range children {
		c.parent = n
	}
	return n
}

// Leaf returns a childless node.
func Leaf(title string) *Node { return NewNode(title) }

// AddChild appends a child node.
func (n *Node) AddChild(c *Node) {
	c.parent = n
	n.Children = append(n.Children, c)
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Parent returns the parent node, nil at the root.
func (n *Node) Parent() *Node { return n.parent }

// Depth returns the node's depth below the root (root = 0).
func (n *Node) Depth() int {
	d := 0
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// Path returns the titles from the root to the node, separated by " > ".
func (n *Node) Path() string {
	var parts []string
	for cur := n; cur != nil; cur = cur.parent {
		parts = append(parts, cur.Title)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " > ")
}

// CountLeaves returns the number of leaf nodes beneath (and including) n.
func (n *Node) CountLeaves() int {
	if n.IsLeaf() {
		return 1
	}
	total := 0
	for _, c := range n.Children {
		total += c.CountLeaves()
	}
	return total
}

// Navigation errors.
var (
	// ErrAtRoot is returned by Back at the root level.
	ErrAtRoot = errors.New("menu: already at root")
	// ErrLeaf is returned by Enter on a leaf without children.
	ErrLeaf = errors.New("menu: entry is a leaf")
	// ErrEmpty is returned when a level has no entries.
	ErrEmpty = errors.New("menu: empty level")
)

// Menu is a cursor over a node tree, always positioned at one entry of the
// current level. The DistScroll maps the distance islands onto the entries
// of the current level.
type Menu struct {
	root    *Node
	level   *Node // node whose children are the current entries
	cursor  int
	selects int // completed selections, for study metrics
}

// New returns a menu rooted at root with the cursor on the first entry.
func New(root *Node) (*Menu, error) {
	m := new(Menu)
	if err := m.Init(root); err != nil {
		return nil, err
	}
	return m, nil
}

// Init builds the navigator New describes in place at m, so an owner can
// hold its Menu by value.
func (m *Menu) Init(root *Node) error {
	if root == nil {
		return errors.New("menu: nil root")
	}
	if root.IsLeaf() {
		return fmt.Errorf("menu: root %q has no entries: %w", root.Title, ErrEmpty)
	}
	*m = Menu{root: root, level: root}
	return nil
}

// Root returns the root node.
func (m *Menu) Root() *Node { return m.root }

// Level returns the node whose children form the current entries.
func (m *Menu) Level() *Node { return m.level }

// Entries returns the entries of the current level.
func (m *Menu) Entries() []*Node { return m.level.Children }

// Len returns the number of entries at the current level.
func (m *Menu) Len() int { return len(m.level.Children) }

// Cursor returns the current entry index.
func (m *Menu) Cursor() int { return m.cursor }

// CurrentEntry returns the node under the cursor.
func (m *Menu) CurrentEntry() *Node { return m.level.Children[m.cursor] }

// Depth returns the current level depth (root level = 0).
func (m *Menu) Depth() int { return m.level.Depth() }

// Selections returns the number of completed Enter operations on leaves.
func (m *Menu) Selections() int { return m.selects }

// MoveTo places the cursor on an absolute index, clamped to the level.
// It reports whether the cursor actually moved.
func (m *Menu) MoveTo(index int) bool {
	if index < 0 {
		index = 0
	}
	if index >= m.Len() {
		index = m.Len() - 1
	}
	if index == m.cursor {
		return false
	}
	m.cursor = index
	return true
}

// Step moves the cursor by delta, clamped. It reports whether it moved.
func (m *Menu) Step(delta int) bool { return m.MoveTo(m.cursor + delta) }

// Enter descends into the entry under the cursor. On an inner node the
// cursor resets to its first child; on a leaf the Action (if any) runs, the
// selection counter increments and Enter returns ErrLeaf itself, unwrapped,
// so a selection allocates nothing.
func (m *Menu) Enter() error {
	cur := m.CurrentEntry()
	if cur.IsLeaf() {
		m.selects++
		if cur.Action != nil {
			cur.Action()
		}
		return ErrLeaf
	}
	m.level = cur
	m.cursor = 0
	return nil
}

// Back ascends one level, placing the cursor on the entry just left.
func (m *Menu) Back() error {
	if m.level == m.root {
		return ErrAtRoot
	}
	child := m.level
	m.level = child.parent
	m.cursor = 0
	for i, c := range m.level.Children {
		if c == child {
			m.cursor = i
			break
		}
	}
	return nil
}

// ResetToRoot returns to the root level, cursor on the first entry.
func (m *Menu) ResetToRoot() {
	m.level = m.root
	m.cursor = 0
}

// windowSpan returns the entry range [start, end) that a lines-row window
// centred on the cursor shows.
func (m *Menu) windowSpan(lines int) (start, end int) {
	if lines <= 0 {
		lines = 1
	}
	n := m.Len()
	start = m.cursor - lines/2
	if start > n-lines {
		start = n - lines
	}
	if start < 0 {
		start = 0
	}
	return start, min(start+lines, n)
}

// rowPrefix is the marker in front of entry i of the window.
func (m *Menu) rowPrefix(i int) string {
	if i == m.cursor {
		return "> "
	}
	return "  "
}

// AppendWindow appends lines rows of the current level centred on the
// cursor to dst and returns the extended slice: the selected row is
// prefixed by "> ", the others by "  ". This is what the firmware writes to
// the top display. Rows reuse the byte buffers in dst's spare capacity, so
// a caller that keeps its rows (`rows = m.AppendWindow(rows[:0], n)`)
// redraws without allocating once they have grown to the longest titles.
func (m *Menu) AppendWindow(dst [][]byte, lines int) [][]byte {
	start, end := m.windowSpan(lines)
	for i := start; i < end; i++ {
		prefix, title := m.rowPrefix(i), m.level.Children[i].Title
		var row []byte
		if n := len(dst); n < cap(dst) {
			row = dst[:n+1][n][:0]
		}
		row = slices.Grow(row, len(prefix)+len(title))
		dst = append(dst, append(append(row, prefix...), title...))
	}
	return dst
}

// WindowIs reports whether AppendWindow(nil, lines) would equal prev,
// without building the window. Titles are exported and may change under the
// menu, so every call compares them afresh; it never allocates.
func (m *Menu) WindowIs(lines int, prev [][]byte) bool {
	start, end := m.windowSpan(lines)
	if len(prev) != end-start {
		return false
	}
	for i := start; i < end; i++ {
		prefix, title, row := m.rowPrefix(i), m.level.Children[i].Title, prev[i-start]
		if len(row) != len(prefix)+len(title) || string(row[:len(prefix)]) != prefix || string(row[len(prefix):]) != title {
			return false
		}
	}
	return true
}
