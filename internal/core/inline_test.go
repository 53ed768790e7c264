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
// contract: it builds this package with -gcflags=-m and requires each named
// callee to be inlined into each named caller. A helper that grows past the
// inliner's budget fails here instead of silently becoming a call per tick
// or per frame.
func TestHotPathInlines(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(goBin, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}

	contract := []struct {
		file, caller string // caller as "Recv.Method" or "Func"
		callees      []string
	}{
		{"soa.go", "StateSlab.tick", []string{
			"xoshiro.next", "band.holds", "(*StateSlab).island", "(*adcTables).code",
			"median3", "(*StateSlab).randomIsland", "u64ToFloat"}},
		{"hub.go", "Hub.find", []string{"(*sessionTable).lookup"}},
		{"hub.go", "Hub.Consume", []string{"(*sessionTable).lookup"}},
		{"hub.go", "Hub.ConsumeBatch", []string{"(*sessionTable).lookup"}},
	}

	// inlined[file][line] lists the callees inlined at that line.
	inlined := map[string]map[int][]string{}
	re := regexp.MustCompile(`^(\S+\.go):(\d+):\d+: inlining call to (\S+)`)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := re.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		file := filepath.Base(m[1])
		line, _ := strconv.Atoi(m[2])
		if inlined[file] == nil {
			inlined[file] = map[int][]string{}
		}
		inlined[file][line] = append(inlined[file][line], m[3])
	}

	fset := token.NewFileSet()
	for _, c := range contract {
		f, err := parser.ParseFile(fset, c.file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		from, to := funcLines(fset, f, c.caller)
		if from == 0 {
			t.Fatalf("%s: no function %s", c.file, c.caller)
		}
		for _, callee := range c.callees {
			found := false
			for line := from; line <= to && !found; line++ {
				for _, got := range inlined[c.file][line] {
					found = found || got == callee
				}
			}
			if !found {
				t.Errorf("%s is not inlined into %s (%s:%d-%d)", callee, c.caller, c.file, from, to)
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
