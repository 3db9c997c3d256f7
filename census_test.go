package looppoint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// censusExempt names every non-test function or method that no non-test
// code references, with the reason it stays. The census test fails on an
// entry missing here and on an entry here that is no longer test-only, so
// the table can only shrink.
var censusExempt = map[string]string{
	"looppoint.Experiments":           "public library API: the harness evaluator behind lpreport",
	"looppoint.ExportSelection":       "public library API: writes a portable selection file",
	"internal/exec.ExecError.Unwrap":  "called by errors.Is and errors.As through the interface",
	"internal/testprog.EveryOp":       "test-program builder shared by several packages' tests",
	"internal/testprog.Heterogeneous": "test-program builder shared by several packages' tests",
	"internal/testprog.OutAddr":       "test-program builder shared by several packages' tests",
	"internal/testprog.Phased":        "test-program builder shared by several packages' tests",
	"internal/testprog.WithSyscalls":  "test-program builder shared by several packages' tests",
}

// TestCensusTestOnlyCode is the caller census: it lists every top-level
// function and method declared outside _test.go files that nothing outside
// _test.go files refers to. bench/ and examples/ count as callers.
// References are resolved by name — a function by its package and name, a
// method by its name alone — so a method that shares its name with one
// some non-test code calls counts as used: the census can miss test-only
// code. What it reports that only the standard library calls, through an
// interface (Unwrap), is exempt like the rest.
func TestCensusTestOnlyCode(t *testing.T) {
	found := census(t)
	for key := range found {
		if _, ok := censusExempt[key]; !ok {
			t.Errorf("%s (%s) is referenced only by tests: delete it, move it into a _test.go file, or exempt it with a reason", key, found[key])
		}
	}
	for key, reason := range censusExempt {
		if _, ok := found[key]; !ok {
			t.Errorf("exemption %s is stale: it is gone or has a non-test caller; delete the entry", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("exemption %s has no reason", key)
		}
	}
}

// census returns the test-only declarations, keyed "<dir>.<Recv.>Name"
// (the directory relative to the module root, "looppoint" for the root)
// and mapped to their position.
func census(t *testing.T) map[string]string {
	t.Helper()
	type decl struct {
		key, pos string
		method   string // the method name; "" for a function
		fn       string // "<import path>.<name>" for a function
	}
	var decls []decl
	used := map[string]bool{} // "<import path>.<name>" and ".<method>"
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		importPath := "looppoint"
		if dir != "." {
			importPath += "/" + dir
		}
		isTest := strings.HasSuffix(p, "_test.go")
		product := !isTest && !strings.HasPrefix(dir, "bench")

		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			self := importPath + "." + name
			if fd.Recv != nil {
				self = "." + name
			}
			if product && name != "main" && name != "init" {
				dirKey := dir
				if dir == "." {
					dirKey = "looppoint"
				}
				dc := decl{key: dirKey + "." + name, pos: fset.Position(fd.Pos()).String()}
				if fd.Recv != nil {
					dc.key = dirKey + "." + recvName(fd.Recv.List[0].Type) + "." + name
					dc.method = name
				} else {
					dc.fn = self
				}
				decls = append(decls, dc)
			}
			if isTest || fd.Body == nil {
				continue
			}
			// A declaration's references to itself do not count.
			walkReferences(fd.Body, importPath, imports, func(ref string) {
				if ref != self {
					used[ref] = true
				}
			})
		}
		if !isTest {
			for _, d := range f.Decls {
				if _, ok := d.(*ast.FuncDecl); !ok {
					walkReferences(d, importPath, imports, func(ref string) { used[ref] = true })
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]string{}
	for _, d := range decls {
		if (d.method != "" && !used["."+d.method]) || (d.fn != "" && !used[d.fn]) {
			found[d.key] = d.pos
		}
	}
	keys := make([]string, 0, len(found))
	for k := range found {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t.Logf("%d test-only declarations:\n%s", len(keys), strings.Join(keys, "\n"))
	return found
}

// walkReferences calls use for everything under n refers to:
// "<import path>.<name>" for an identifier of the file's own package or a
// selector on an imported package, and ".<name>" for any other selector (a
// method or a field).
func walkReferences(n ast.Node, importPath string, imports map[string]string, use func(string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if ip, ok := imports[x.Name]; ok {
					use(ip + "." + n.Sel.Name)
					return false
				}
			}
			use("." + n.Sel.Name)
			walkReferences(n.X, importPath, imports, use)
			return false
		case *ast.Ident:
			use(importPath + "." + n.Name)
		}
		return true
	})
}

// recvName is the receiver's type name without pointer or type parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
