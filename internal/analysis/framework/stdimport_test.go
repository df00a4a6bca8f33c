package framework

import (
	"go/token"
	"go/types"
	"testing"
)

// Every import of one standard-library path must yield the same package
// object, directly or through another package's imports, or types from it
// would not be identical across the packages of a load.
func TestStdImporterMemoizes(t *testing.T) {
	im := newStdImporter(token.NewFileSet())
	fmtPkg, err := im.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	again, err := im.ImportFrom("fmt", "", 0)
	if err != nil || again != fmtPkg {
		t.Fatalf("second import of fmt: %p, %v; want %p", again, err, fmtPkg)
	}
	io, err := im.Import("io")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range fmtPkg.Imports() {
		if p.Path() == "io" {
			found = true
			if p != io {
				t.Errorf("fmt's io %p differs from the directly imported io %p", p, io)
			}
		}
	}
	if !found {
		t.Error("fmt does not list io among its imports")
	}
	if u, err := im.Import("unsafe"); err != nil || u != types.Unsafe {
		t.Errorf("unsafe: %v, %v; want types.Unsafe", u, err)
	}
	if obj := fmtPkg.Scope().Lookup("Println"); obj == nil {
		t.Error("fmt.Println missing from the checked API")
	}
	if _, err := im.Import("no/such/package"); err == nil {
		t.Error("import of a missing package succeeded")
	}
}
