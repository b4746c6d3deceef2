package dcmodel

import (
	"bytes"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFacadeAPI pins the exported surface of package dcmodel: one sorted
// line per exported const, var, type (alias target and exported fields or
// interface methods included), func and method, rendered from the non-test
// sources without comments. Adding or removing a public name shows up as a
// one-line diff of testdata/facade_api.golden; regenerate it with
// `go test . -run TestFacadeAPI -update`.
func TestFacadeAPI(t *testing.T) {
	got := facadeAPI(t)
	path := filepath.Join("testdata", "facade_api.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test . -run TestFacadeAPI -update` to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("exported API drifted from %s (run `go test . -run TestFacadeAPI -update` if the change is meant)\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// facadeAPI renders the package's exported declarations, one per line.
func facadeAPI(t *testing.T) string {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "dcmodel")
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			lines = append(lines, valueLines(fset, v.Decl)...)
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			decl := *f.Decl
			decl.Doc, decl.Body = nil, nil
			lines = append(lines, nodeString(fset, &decl))
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		for _, spec := range typ.Decl.Specs {
			ts := spec.(*ast.TypeSpec)
			if ts.Assign.IsValid() {
				lines = append(lines, "type "+ts.Name.Name+" = "+typeString(fset, ts.Type))
			} else {
				lines = append(lines, "type "+ts.Name.Name+" "+typeString(fset, ts.Type))
			}
		}
		values(typ.Consts)
		values(typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// valueLines renders one line per exported name of a const or var
// declaration. Inside a const group a spec without a type repeats the
// previous spec's, so the implicit type is spelled out; an implicit
// (iota-repeated) value is left off.
func valueLines(fset *token.FileSet, d *ast.GenDecl) []string {
	var out []string
	var typ ast.Expr
	for _, spec := range d.Specs {
		vs := spec.(*ast.ValueSpec)
		if vs.Type != nil || len(vs.Values) > 0 {
			typ = vs.Type
		}
		for i, name := range vs.Names {
			if !name.IsExported() {
				continue
			}
			line := d.Tok.String() + " " + name.Name
			if typ != nil {
				line += " " + typeString(fset, typ)
			}
			if i < len(vs.Values) {
				line += " = " + nodeString(fset, vs.Values[i])
			}
			out = append(out, line)
		}
	}
	return out
}

// typeString renders a type expression on one line, listing a struct's
// exported fields or an interface's methods separated by "; ".
func typeString(fset *token.FileSet, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StructType:
		return "struct{" + fieldsString(fset, x.Fields) + "}"
	case *ast.InterfaceType:
		return "interface{" + fieldsString(fset, x.Methods) + "}"
	}
	return nodeString(fset, e)
}

func fieldsString(fset *token.FileSet, fl *ast.FieldList) string {
	var parts []string
	for _, f := range fl.List {
		if ft, ok := f.Type.(*ast.FuncType); ok { // interface method
			sig := strings.TrimPrefix(nodeString(fset, ft), "func")
			for _, n := range f.Names {
				parts = append(parts, n.Name+sig)
			}
			continue
		}
		typ := typeString(fset, f.Type)
		if len(f.Names) == 0 { // embedded
			parts = append(parts, typ)
		}
		for _, n := range f.Names {
			parts = append(parts, n.Name+" "+typ)
		}
	}
	return strings.Join(parts, "; ")
}

// nodeString prints a node with every run of whitespace folded to one
// space, so a signature wrapped over several source lines stays one line.
func nodeString(fset *token.FileSet, n ast.Node) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, n); err != nil {
		panic(err)
	}
	return strings.Join(strings.Fields(b.String()), " ")
}
