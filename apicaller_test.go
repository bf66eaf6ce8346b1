package obfuslock

// Dead-API check over the internal tree: every exported function and
// method declared under internal/ must be named by some non-test code of
// the module. internal/ packages cannot be imported from outside the
// module, so an exported name that no CLI, example, experiment, facade
// or benchmark uses is code that no program runs.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerExempt lists the exported internal names that only tests call,
// each with the reason it stays.
var callerExempt = map[string]string{
	"count.Models":                 "exact model count, the reference the samplers' estimates are tested against",
	"locking.BindInputs":           "binds a lock's data inputs to a pattern, the reference for key-function tests",
	"sim.ExhaustiveInputs":         "all 2^n input patterns, the reference simulation for exact-equivalence tests",
	"rewrite.CountPIInverterEdges": "counts inverted input edges, the measure of the rewriter's obfuscation tests",
	"rewrite.Ones":                 "on-set size of a truth table, checked against cut enumeration",
	"rewrite.Truth":                "cube truth table, checked against simulation",
	"obs.Started":                  "Collector query: how tests read back the spans that began",
	"obs.EventsNamed":              "Collector query: how tests find recorded events by name",
	"obs.SpanNamed":                "Collector query: how tests find one recorded span",
}

// TestInternalAPIHasCaller fails on any exported function or method under
// internal/ whose name no non-test Go file of the module uses. Matching is
// by name, so a use of any same-named identifier counts as a caller.
func TestInternalAPIHasCaller(t *testing.T) {
	type decl struct{ pkg, name string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		inInternal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if inInternal && fd.Name.IsExported() {
				decls = append(decls, decl{filepath.Dir(path), fd.Name.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported internal functions found; is the walk rooted at the module?")
	}
	var dead []string
	for _, d := range decls {
		switch {
		case d.name == "String" || d.name == "Error":
		case callerExempt[filepath.Base(d.pkg)+"."+d.name] != "":
		case !used[d.name]:
			dead = append(dead, d.pkg+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests: delete it or call it", d)
	}
	for key := range callerExempt {
		if used[key[strings.Index(key, ".")+1:]] {
			t.Errorf("callerExempt[%q]: non-test code now uses it; drop the exemption", key)
		}
	}
}
