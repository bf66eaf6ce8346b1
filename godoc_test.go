package obfuslock

// Documentation-consistency checks for the attack-facing packages. The
// attack surface is the part of the codebase external users script
// against first (cmd/attack, the facade's AttackNamed), so its godoc is
// held to a stricter bar than the rest of the tree: every exported
// symbol documented and a doc.go package overview per package. CI runs
// this alongside go vet.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// godocPackages are the directories under the documentation audit.
var godocPackages = []string{
	"internal/attacks",
	"internal/locking",
}

// TestGodocDocGo requires a doc.go package overview in every audited
// package: the package comment is the first thing godoc renders, and
// keeping it in a dedicated file stops it from silently migrating (or
// duplicating) when the leading source file is renamed.
func TestGodocDocGo(t *testing.T) {
	for _, dir := range godocPackages {
		if _, err := os.Stat(filepath.Join(dir, "doc.go")); err != nil {
			t.Errorf("%s: missing doc.go package overview: %v", dir, err)
		}
	}
}

// TestGodocExportedSymbols walks the audited packages and reports every
// exported type, function, method, const and var that lacks a doc
// comment. Grouped declarations are covered by their group comment.
func TestGodocExportedSymbols(t *testing.T) {
	for _, dir := range godocPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				for _, decl := range file.Decls {
					checkDeclDocs(t, fset, name, decl)
				}
			}
		}
	}
}

// checkDeclDocs reports the undocumented exported symbols of one
// top-level declaration.
func checkDeclDocs(t *testing.T, fset *token.FileSet, file string, decl ast.Decl) {
	t.Helper()
	undocumented := func(name string, pos token.Pos) {
		t.Errorf("%s:%d: exported symbol %s has no doc comment",
			file, fset.Position(pos).Line, name)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil {
			name := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) > 0 {
				if recv := receiverName(d.Recv.List[0].Type); recv != "" {
					if !ast.IsExported(recv) {
						return // method on an unexported type
					}
					name = recv + "." + name
				}
			}
			undocumented(name, d.Pos())
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					undocumented(s.Name.Name, s.Pos())
				}
			case *ast.ValueSpec:
				// A group comment (const/var block doc) or a per-spec
				// comment both count; a trailing line comment does too.
				if d.Doc != nil || s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						undocumented(n.Name, n.Pos())
					}
				}
			}
		}
	}
}

// receiverName unwraps a method receiver type expression to its named
// type, tolerating pointers and generic instantiations.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
