package distscroll_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlySurface lists the exported functions and methods under internal/
// that may have no caller outside _test.go files, keyed as "pkg.Func" or
// "pkg.Type.Method" (pkg is the directory under internal/). Each carries a
// one-word reason:
//
//   - accessor: a getter or setter of modelled hardware or state, the only
//     way a test can observe or drive a paper behaviour;
//   - interface: satisfies an interface, so it is called through dynamic
//     dispatch or by the standard library, never by name;
//   - codec: one half of an encode/decode or pack/unpack pair whose other
//     half production code uses;
//   - debt: test-only production code, to be deleted with its tests or moved
//     into them (ROADMAP, "Put the test-only surface in tests").
//
// TestTestOnlySurface keeps the list exact: a name that is gone or has
// gained a caller must leave it.
var testOnlySurface = map[string]string{
	"adc.Converter.Channels":            "accessor",
	"adc.Converter.Vref":                "accessor",
	"adxl311.Accel.SetDynamic":          "accessor",
	"buttons.Pad.Pressed":               "accessor",
	"buttons.Pad.SetDebounce":           "accessor",
	"context.DecodeContext":             "codec",
	"display.Display.Contrast":          "accessor",
	"display.Display.Inverted":          "accessor",
	"display.Display.Line":              "accessor",
	"display.Display.Lines":             "accessor",
	"display.Display.Pixel":             "accessor",
	"display.Display.SetLine":           "accessor",
	"firmware.Firmware.DisplayErrors":   "accessor",
	"firmware.Firmware.HandednessFlips": "accessor",
	"firmware.Firmware.Idle":            "accessor",
	"firmware.Firmware.IdleCycles":      "accessor",
	"firmware.Firmware.IdleTransitions": "accessor",
	"firmware.Firmware.LowBattery":      "accessor",
	"firmware.Firmware.SensorFaults":    "accessor",
	"fitts.Analysis.PredictMT":          "debt",
	"gp2d120.Sensor.InRange":            "accessor",
	"gp2d120.Sensor.SetSurface":         "accessor",
	"hand.Hand.Teleport":                "accessor",
	"hand.MinJerk.PeakVelocity":         "accessor",
	"menu.Chunked.Page":                 "accessor",
	"menu.Menu.ResetToRoot":             "accessor",
	"menu.Menu.Root":                    "accessor",
	"menu.Menu.Selections":              "accessor",
	"pda.PDA.Activated":                 "accessor",
	"pda.PDA.NoSignal":                  "accessor",
	"pda.PDA.Records":                   "accessor",
	"pda.PDA.SelectedItem":              "accessor",
	"pda.PDA.Selection":                 "accessor",
	"plot.Plot.SetRange":                "debt",
	"rf.Link.DecoderStats":              "accessor",
	"rf.Message.MarshalBinary":          "codec",
	"rf.Message.MarshalBinaryV0":        "codec",
	"rf.NewPipe":                        "debt",
	"serial.Bootloader.Naks":            "accessor",
	"serial.Bootloader.Records":         "accessor",
	"serial.Flash.EraseCycles":          "accessor",
	"smartits.Board.Battery":            "accessor",
	"smartits.Board.DownloadFirmware":   "accessor",
	"smartits.Board.DrainBattery":       "accessor",
	"smartits.Board.SetContrastPot":     "accessor",
	"stats.Correlation":                 "debt",
	"stats.NewHistogram":                "debt",
	"stats.Percentile":                  "debt",
	"study.IsLatinSquare":               "debt",
	"study.LatinSquare":                 "debt",
	"telemetry.Counter.Inc":             "debt",
	"telemetry.Registry.Counter":        "debt",
	"telemetry.Registry.Gauge":          "debt",
	"trace.CounterShift":                "debt",
	"trace.LatencyShift":                "debt",
	"trace.Recorder.AttachMetrics":      "debt",
	"trace.Trace.CountKind":             "debt",
	"tracing.UnpackNetIngest":           "codec",
}

// surfaceReasons are the reasons testOnlySurface may give.
var surfaceReasons = map[string]bool{"accessor": true, "interface": true, "codec": true, "debt": true}

// TestTestOnlySurface parses every Go file of the repository with go/ast and
// fails when an exported function or method under internal/ is referenced
// only from _test.go files and is not in testOnlySurface, or when an entry
// of testOnlySurface is no longer declared or now has a caller. Files of the
// perfbench module count as callers.
//
// A package-level function counts as called when a non-test file names it
// qualified by an import of its package, or unqualified in its own package.
// A method counts as called when any non-test file selects a member of that
// name, whatever the receiver: without type checking, methods are matched
// by name, so a name collision can hide a test-only method.
func TestTestOnlySurface(t *testing.T) {
	const module = "github.com/hcilab/distscroll"
	type decl struct {
		key, pkg, name string
		method         bool
		pos            token.Position
	}
	var decls []decl
	// funcRefs holds "import/path.Name" for every package-level name a
	// non-test file references; selected holds every selected member name.
	funcRefs := map[string]bool{}
	selected := map[string]bool{}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgPath := module
		if dir != "." {
			pkgPath += "/" + dir
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}

		if strings.HasPrefix(dir, "internal/") {
			pkg := strings.TrimPrefix(dir, "internal/")
			for _, dc := range f.Decls {
				fn, ok := dc.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				d := decl{key: pkg + "." + fn.Name.Name, pkg: pkgPath, name: fn.Name.Name, pos: fset.Position(fn.Pos())}
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					d.method = true
					d.key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, d)
			}
		}

		// skip holds the identifiers that do not reference a package-level
		// name: declared function names and selected member names.
		skip := map[*ast.Ident]bool{}
		for _, dc := range f.Decls {
			if fn, ok := dc.(*ast.FuncDecl); ok {
				skip[fn.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						funcRefs[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !skip[n] {
					funcRefs[pkgPath+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions under internal/: run from the repository root")
	}

	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		called := funcRefs[d.pkg+"."+d.name]
		if d.method {
			called = selected[d.name]
		}
		reason, listed := testOnlySurface[d.key]
		switch {
		case !called && !listed:
			t.Errorf("%s: %s has no caller outside _test.go files: delete it, move it into the tests, or list it in testOnlySurface with a reason", d.pos, d.key)
		case called && listed:
			t.Errorf("%s: %s is listed in testOnlySurface (%s) but now has a caller outside _test.go files: remove the entry", d.pos, d.key, reason)
		}
	}
	var names []string
	for name := range testOnlySurface {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !seen[name] {
			t.Errorf("testOnlySurface lists %s, which is no longer declared: remove the entry", name)
		}
		if !surfaceReasons[testOnlySurface[name]] {
			t.Errorf("testOnlySurface gives %s the reason %q; want one of accessor, interface, codec, debt", name, testOnlySurface[name])
		}
	}
}

// recvName is the type name of a method receiver: T for T and *T.
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
