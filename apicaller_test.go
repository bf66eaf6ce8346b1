package obfuslock

// Dead-API checks. Every exported function and method declared under
// internal/ must be named by some non-test code of the module: internal/
// packages cannot be imported from outside the module, so an exported
// name that no CLI, example, experiment, facade or benchmark uses is code
// that no program runs. The same holds for the root facade: every name it
// exports must be named through an import of "obfuslock" by a program
// (cmd/, examples/, benchmark/), apart from the aliases in facadeTypeOnly.

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

// walkSources parses every non-test Go file of the module (benchmark/
// included; hidden and testdata directories skipped) and hands it to fn.
func walkSources(fn func(path string, f *ast.File)) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
		fn(path, f)
		return nil
	})
}

// TestInternalAPIHasCaller fails on any exported function or method under
// internal/ that no non-test Go file of the module uses. A function counts
// as used where another package names it as <import>.Name, or where its
// own package names it bare. A method counts as used wherever an
// identifier of its name appears, since its receiver's type is not known
// without type-checking.
func TestInternalAPIHasCaller(t *testing.T) {
	type decl struct {
		pkg, name string
		method    bool
	}
	var decls []decl
	used := map[string]bool{}    // <import path>.Name of every function reference
	anyName := map[string]bool{} // every identifier that is not a declaration
	err := walkSources(func(path string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		self := "obfuslock"
		if dir != "." {
			self += "/" + dir
		}
		imports := map[string]string{}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if strings.HasPrefix(dir, "internal/") && fd.Name.IsExported() {
				decls = append(decls, decl{self, fd.Name.Name, fd.Recv != nil})
			}
		}
		selected := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !declared[n] {
					anyName[n.Name] = true
					if !selected[n] {
						used[self+"."+n.Name] = true
					}
				}
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported internal functions found; is the walk rooted at the module?")
	}
	var dead []string
	exempt := map[string]bool{}
	for _, d := range decls {
		key := d.pkg[strings.LastIndex(d.pkg, "/")+1:] + "." + d.name
		isUsed := used[d.pkg+"."+d.name] || d.method && anyName[d.name]
		switch {
		case d.name == "String" || d.name == "Error":
		case callerExempt[key] != "":
			exempt[key] = true
			if isUsed {
				t.Errorf("callerExempt[%q]: non-test code now uses it; drop the exemption", key)
			}
		case !isUsed:
			dead = append(dead, strings.TrimPrefix(d.pkg, "obfuslock/")+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests: delete it or call it", d)
	}
	for key := range callerExempt {
		if !exempt[key] {
			t.Errorf("callerExempt[%q]: no such exported internal function", key)
		}
	}
}

// facadeTypeOnly lists the exported facade names that no program names
// directly, each with the reason it stays: every one is an alias of what a
// called facade function returns or takes, so a caller holds its values
// without importing an internal package.
var facadeTypeOnly = map[string]string{
	"Options":       "taken by Lock and LockContext, returned by DefaultOptions",
	"Result":        "returned by Lock and LockContext",
	"Report":        "the Report field of a Result",
	"Oracle":        "returned by NewOracle, taken by Attack.Run",
	"CECOptions":    "returned by DefaultCECOptions and SweepCECOptions",
	"AttackOptions": "returned by DefaultAttackOptions, taken by Attack.Run",
	"AttackResult":  "returned by Attack.Run",
	"PPAReport":     "returned by AnalyzePPA, taken by ComparePPA",
	"PPAOverhead":   "returned by ComparePPA",
	"Benchmark":     "the element type of Benchmarks and SmallBenchmarks",
	"Attack":        "returned by AttackNamed",
}

// TestFacadeAPIHasCaller fails on any exported top-level name of the root
// package that no program outside the root directory names as
// <import of "obfuslock">.Name. Matching is by selector, not by bare
// identifier, because Lock, Options and others also exist under internal/.
func TestFacadeAPIHasCaller(t *testing.T) {
	var decls []string
	used := map[string]bool{}
	err := walkSources(func(path string, f *ast.File) {
		if filepath.Dir(path) == "." {
			for _, dd := range f.Decls {
				switch d := dd.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						decls = append(decls, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls = append(decls, s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									decls = append(decls, n.Name)
								}
							}
						}
					}
				}
			}
			return
		}
		facade := ""
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == "obfuslock" {
				facade = "obfuslock"
				if imp.Name != nil {
					facade = imp.Name.Name
				}
			}
		}
		if facade == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == facade {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported facade names found; is the walk rooted at the module?")
	}
	sort.Strings(decls)
	for _, name := range decls {
		if !used[name] && facadeTypeOnly[name] == "" {
			t.Errorf("obfuslock.%s has no caller in cmd/, examples/ or benchmark/: delete it or call it", name)
		}
	}
	for name := range facadeTypeOnly {
		if used[name] {
			t.Errorf("facadeTypeOnly[%q]: a program now names it; drop the exemption", name)
		}
	}
}
