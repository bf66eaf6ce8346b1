package obfuslock

// Golden test over the exported API surface: the facade may NAME internal
// types only through type aliases. Exported functions, methods, variables
// and non-alias type declarations must not reference internal/... concrete
// types in their signatures — otherwise callers are forced to import an
// internal package (which the compiler forbids) to hold a value.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// internalImports maps the local import names of a file to true when they
// point into this module's internal tree.
func internalImports(f *ast.File) map[string]bool {
	out := map[string]bool{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || !strings.Contains(path, "internal/") {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = true
	}
	return out
}

// internalRefs collects selector expressions (pkg.Ident) under root that
// resolve to internal packages.
func internalRefs(root ast.Node, internal map[string]bool) []string {
	var refs []string
	if root == nil {
		return nil
	}
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && internal[id.Name] {
			refs = append(refs, id.Name+"."+sel.Sel.Name)
		}
		return true
	})
	return refs
}

// TestDeprecatedWrappersRemoved pins the API redesign: the pre-registry
// convenience wrappers are gone for good. LockWith/SchemeOptions and
// AttackNamed are the only paths to a baseline lock or an attack.
func TestDeprecatedWrappersRemoved(t *testing.T) {
	removed := map[string]bool{
		"LockRLL": true, "LockSARLock": true, "LockAntiSAT": true,
		"LockTTLock": true, "LockSFLLHD": true,
		"RunSATAttack": true, "RunAppSAT": true, "WithTimeout": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil && removed[d.Name.Name] {
				t.Errorf("%s: deprecated wrapper %s has been resurrected", file, d.Name.Name)
			}
		}
	}
}

func TestAPISurfaceLeaksNoInternalTypes(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		internal := internalImports(f)
		if len(internal) == 0 {
			continue
		}
		report := func(what string, node ast.Node) {
			for _, ref := range internalRefs(node, internal) {
				t.Errorf("%s: %s leaks internal type %s in its exported surface",
					file, what, ref)
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil {
					// Methods on unexported types are not part of the surface.
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok && !id.IsExported() {
						continue
					}
				}
				report("func "+d.Name.Name, d.Type)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						if s.Assign != token.NoPos {
							// Type alias: the sanctioned way to name an
							// internal type from the facade.
							continue
						}
						report("type "+s.Name.Name, s.Type)
					case *ast.ValueSpec:
						exported := false
						for _, n := range s.Names {
							if n.IsExported() {
								exported = true
							}
						}
						if exported {
							report("var/const "+s.Names[0].Name, s.Type)
						}
					}
				}
			}
		}
	}
}
