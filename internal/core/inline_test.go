package core

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestHotPathInlines turns the hot paths' inlining claims into a compiler
// contract: it builds each named package with -gcflags=-m and requires each
// named callee to be inlined into each named caller. A helper that grows
// past the inliner's budget fails here instead of silently becoming a call
// per tick or per frame. Besides this package it covers internal/rf, whose
// timers read the device's concrete *sim.Scheduler: its clock reads must
// stay inlined rather than become calls per frame.
func TestHotPathInlines(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}

	clock := []string{"sim.(*Scheduler).Clock", "sim.(*Clock).Now"}
	contract := []struct {
		dir, file, caller string // caller as "Recv.Method" or "Func"
		callees           []string
	}{
		{".", "soa.go", "StateSlab.tick", []string{
			"xoshiro.next", "band.holds", "(*StateSlab).island", "(*adcTables).code",
			"median3", "(*StateSlab).randomIsland", "u64ToFloat"}},
		{".", "hub.go", "Hub.find", []string{"(*sessionTable).lookup"}},
		{".", "hub.go", "Hub.Consume", []string{"(*sessionTable).lookup"}},
		{".", "hub.go", "Hub.ConsumeBatch", []string{"(*sessionTable).lookup"}},
		{"../rf", "link.go", "Link.SendTagged", clock},
		{"../rf", "arq.go", "ARQ.armTimer", clock},
		{"../rf", "arq.go", "ARQ.refreshSkip", clock},
		{"../rf", "arq.go", "ReverseLink.SendAck", clock},
	}

	// inlined[path][line] lists the callees inlined at that line of the
	// file at path (dir joined with the file's base name).
	inlined := map[string]map[int][]string{}
	re := regexp.MustCompile(`^(\S+\.go):(\d+):\d+: inlining call to (\S+)`)
	built := map[string]bool{}
	for _, c := range contract {
		if built[c.dir] {
			continue
		}
		built[c.dir] = true
		cmd := exec.Command(goBin, "build", "-gcflags=-m", ".")
		cmd.Dir = c.dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go build -gcflags=-m in %s: %v\n%s", c.dir, err, out)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			m := re.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			path := filepath.Join(c.dir, filepath.Base(m[1]))
			line, _ := strconv.Atoi(m[2])
			if inlined[path] == nil {
				inlined[path] = map[int][]string{}
			}
			inlined[path][line] = append(inlined[path][line], m[3])
		}
	}

	fset := token.NewFileSet()
	for _, c := range contract {
		path := filepath.Join(c.dir, c.file)
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		from, to := funcLines(fset, f, c.caller)
		if from == 0 {
			t.Fatalf("%s: no function %s", path, c.caller)
		}
		for _, callee := range c.callees {
			found := false
			for line := from; line <= to && !found; line++ {
				for _, got := range inlined[path][line] {
					found = found || got == callee
				}
			}
			if !found {
				t.Errorf("%s is not inlined into %s (%s:%d-%d)", callee, c.caller, path, from, to)
			}
		}
	}
}

// funcLines returns the first and last line of the function or method
// named name ("Recv.Method" or "Func") in f, or 0, 0.
func funcLines(fset *token.FileSet, f *ast.File, name string) (from, to int) {
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		got := fn.Name.Name
		if fn.Recv != nil && len(fn.Recv.List) == 1 {
			typ := fn.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				got = id.Name + "." + got
			}
		}
		if got == name {
			return fset.Position(fn.Pos()).Line, fset.Position(fn.End()).Line
		}
	}
	return 0, 0
}
