package dcmodel

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

// testOnlyInternalNames are the exported internal/ names that only tests
// reference, each with the reason it stays.
var testOnlyInternalNames = map[string]string{
	"dcmodel/internal/stats.KSTest2":         "two-sample KS oracle of the samplers' and synthesizers' tests",
	"dcmodel/internal/stats.Sample":          "draws the samples the distribution and fit tests check",
	"dcmodel/internal/dapper.ToRequest":      "inverse of FromRequest in TestFromRequestToRequestRoundTrip",
	"dcmodel/internal/gwp.ExactBusyFraction": "oracle of TestSampledBusyMatchesExact",
	"dcmodel/internal/spec.Render":           "re-encodes specs for FuzzSpecRoundTrip",
	"dcmodel/internal/markov.TrainOrderK":    "behind BenchmarkAblationMarkovOrder's Markov order 1 vs 2 row",
}

// TestNoTestOnlyInternalNames is a source-level guard against code that
// nothing runs: every exported top-level func, type, var and const in a
// non-test file under internal/ must be referenced, outside its own
// declaration (a type's methods count as part of it), by a non-test file
// of the module or of the benchmark module. A reference is a bare
// identifier in the declaring package or a pkg.Name selector elsewhere.
// Methods are exempt: interfaces dispatch them. A name only tests use is
// deleted with its tests, or earns a line in testOnlyInternalNames.
func TestNoTestOnlyInternalNames(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		pkg string // import path of the file's package
		ast *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
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
		files = append(files, file{pkg: filepath.ToSlash(filepath.Join("dcmodel", filepath.Dir(path))), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: name -> the source ranges that make up its declaration.
	type span struct{ from, to token.Pos }
	decls := map[string][]span{}
	add := func(pkg string, id *ast.Ident, from, to token.Pos) {
		if strings.HasPrefix(pkg, "dcmodel/internal/") && id.IsExported() {
			decls[pkg+"."+id.Name] = append(decls[pkg+"."+id.Name], span{from, to})
		}
	}
	for _, f := range files {
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(f.pkg, d.Name, d.Pos(), d.End())
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(f.pkg, s.Name, s.Pos(), s.End())
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(f.pkg, n, s.Pos(), s.End())
						}
					}
				}
			}
		}
	}
	// A type's methods belong to its declaration.
	for _, f := range files {
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				if key := f.pkg + "." + id.Name; decls[key] != nil {
					decls[key] = append(decls[key], span{fd.Pos(), fd.End()})
				}
			}
		}
	}

	referenced := map[string]bool{}
	ref := func(key string, at token.Pos) {
		spans, ok := decls[key]
		if !ok {
			return
		}
		for _, s := range spans {
			if s.from <= at && at < s.to {
				return
			}
		}
		referenced[key] = true
	}
	for _, f := range files {
		imports := map[string]string{}
		for _, im := range f.ast.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = path
		}
		// visit records the references under n. A selector's field, a
		// func's, a field's or an interface method's own name and a struct
		// literal's keys name no package-level identifier.
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					ref(imports[x.Name]+"."+n.Sel.Name, n.Pos())
				} else {
					ast.Inspect(n.X, visit)
				}
				return false
			case *ast.FuncDecl:
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.Field:
				ast.Inspect(n.Type, visit)
				return false
			case *ast.CompositeLit:
				switch n.Type.(type) {
				case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
					// A named type's literal keys are field names.
					ast.Inspect(n.Type, visit)
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							e = kv.Value
						}
						ast.Inspect(e, visit)
					}
					return false
				}
			case *ast.Ident:
				ref(f.pkg+"."+n.Name, n.Pos())
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	if len(decls) < 200 {
		t.Fatalf("found %d exported internal/ names; the walk did not start at the module root", len(decls))
	}
	var unused []string
	for key := range decls {
		if !referenced[key] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		if _, ok := testOnlyInternalNames[key]; !ok {
			t.Errorf("%s is referenced by no non-test file; delete it with its tests", key)
		}
	}
	for key := range testOnlyInternalNames {
		if decls[key] == nil {
			t.Errorf("allowlisted %s no longer exists; drop it from testOnlyInternalNames", key)
		} else if referenced[key] {
			t.Errorf("allowlisted %s is referenced by non-test code now; drop it from testOnlyInternalNames", key)
		}
	}
}
