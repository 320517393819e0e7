package rundown_test

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/public_api.txt from the current sources")

// TestPublicSurface compares the exported identifiers of package rundown
// — functions, methods, types, constants, variables, and the fields of
// the structs and interfaces declared here — with the checked-in list, so
// a retired name cannot come back and every addition is a reviewed diff
// of testdata/public_api.txt (go test -run TestPublicSurface -update .).
func TestPublicSurface(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs["rundown"]
	if pkg == nil {
		t.Fatalf("package rundown not found among %d parsed packages", len(pkgs))
	}
	var names []string
	add := func(kind, name string) {
		if ast.IsExported(name[strings.LastIndex(name, ".")+1:]) {
			names = append(names, kind+" "+name)
		}
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add("func", d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					add("method", id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							add(d.Tok.String(), id.Name)
						}
					case *ast.TypeSpec:
						add("type", sp.Name.Name)
						if !sp.Name.IsExported() {
							continue
						}
						kind, members := "", (*ast.FieldList)(nil)
						switch ty := sp.Type.(type) {
						case *ast.StructType:
							kind, members = "field", ty.Fields
						case *ast.InterfaceType:
							kind, members = "method", ty.Methods
						}
						if members != nil {
							for _, f := range members.List {
								for _, id := range f.Names {
									add(kind, sp.Name.Name+"."+id.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"

	const golden = "testdata/public_api.txt"
	if *updateSurface {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		have := map[string]bool{}
		for _, n := range strings.Split(strings.TrimSpace(string(want)), "\n") {
			have[n] = true
		}
		for _, n := range names {
			if !have[n] {
				t.Errorf("added to the public surface: %s", n)
			}
			delete(have, n)
		}
		for n := range have {
			t.Errorf("removed from the public surface: %s", n)
		}
		t.Errorf("%s is stale; review the change and rerun with -update", golden)
	}
}
