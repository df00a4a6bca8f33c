package framework

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// closure adds pkg and every package it imports, transitively, to seen,
// and reports a path that maps to two different package objects.
func closure(t *testing.T, pkg *types.Package, seen map[string]*types.Package) {
	t.Helper()
	if prev, ok := seen[pkg.Path()]; ok {
		if prev != pkg {
			t.Errorf("two package objects for %q: %p and %p", pkg.Path(), prev, pkg)
		}
		return
	}
	seen[pkg.Path()] = pkg
	for _, imp := range pkg.Imports() {
		closure(t, imp, seen)
	}
}

// importWithin imports path through im, failing the test if the import
// has not returned within a minute.
func importWithin(t *testing.T, im types.Importer, path string) (*types.Package, error) {
	t.Helper()
	type result struct {
		pkg *types.Package
		err error
	}
	done := make(chan result, 1)
	go func() {
		pkg, err := im.Import(path)
		done <- result{pkg, err}
	}()
	select {
	case r := <-done:
		return r.pkg, r.err
	case <-time.After(time.Minute):
		t.Fatalf("import of %q blocked", path)
		return nil, nil
	}
}

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
	// Every package fmt reaches, imported again directly, is the object
	// fmt's check saw.
	seen := map[string]*types.Package{}
	closure(t, fmtPkg, seen)
	for path, pkg := range seen {
		if direct, err := im.Import(path); err != nil || direct != pkg {
			t.Errorf("import of %q: %p, %v; fmt's closure holds %p", path, direct, err, pkg)
		}
	}
	if u, err := im.Import("unsafe"); err != nil || u != types.Unsafe {
		t.Errorf("unsafe: %v, %v; want types.Unsafe", u, err)
	}
	if obj := fmtPkg.Scope().Lookup("Println"); obj == nil {
		t.Error("fmt.Println missing from the checked API")
	}
	for range 2 {
		if _, err := importWithin(t, im, "no/such/package"); err == nil {
			t.Error("import of a missing package succeeded")
		}
	}
}

// Loads may share one importer from several goroutines: each path still
// yields one package object, and a missing package or an import cycle
// fails every import that reaches it, without blocking.
func TestStdImporterConcurrentLoads(t *testing.T) {
	im := newStdImporter(token.NewFileSet())
	sets := [][]string{
		{"encoding/json", "fmt", "text/template"},
		{"os", "fmt", "encoding/json", "bufio"},
	}
	seen := make([]map[string]*types.Package, len(sets))
	var wg sync.WaitGroup
	for i, set := range sets {
		seen[i] = map[string]*types.Package{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, path := range set {
				pkg, err := im.Import(path)
				if err != nil {
					t.Error(err)
					return
				}
				closure(t, pkg, seen[i])
			}
		}()
	}
	wg.Wait()
	shared := 0
	for path, pkg := range seen[0] {
		if other, ok := seen[1][path]; ok {
			shared++
			if other != pkg {
				t.Errorf("the two loads got different objects for %q: %p and %p", path, pkg, other)
			}
		}
	}
	if shared < 10 {
		t.Errorf("the two loads share %d packages; the test needs overlapping sets", shared)
	}

	// A GOROOT of its own: a imports b, which imports a missing package;
	// x and y import each other.
	root := t.TempDir()
	for path, src := range map[string]string{
		"a/a.go": "package a\n\nimport _ \"b\"\n",
		"b/b.go": "package b\n\nimport _ \"nosuch\"\n",
		"x/x.go": "package x\n\nimport _ \"y\"\n",
		"y/y.go": "package y\n\nimport _ \"x\"\n",
	} {
		file := filepath.Join(root, "src", filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ctxt := build.Default
	ctxt.GOROOT, ctxt.GOPATH = root, ""
	fake := newStdImporter(token.NewFileSet())
	fake.ctxt = &ctxt
	for _, tc := range []struct{ path, want string }{
		{"a", `"b"`},
		{"nosuch", "nosuch"},
		{"b", "nosuch"},
		{"x", "import cycle"},
		{"y", "import cycle"},
	} {
		if _, err := importWithin(t, fake, tc.path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("import of %q: error %v, want one naming %s", tc.path, err, tc.want)
		}
	}
}

// fullBodyImporter is the reference for the purge: it checks standard
// library packages the way stdImporter does, but from whole files, one
// package after another.
type fullBodyImporter struct {
	fset  *token.FileSet
	sizes types.Sizes
	pkgs  map[string]*types.Package
}

func (im *fullBodyImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, "", 0)
}

func (im *fullBodyImporter) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := im.pkgs[path]; ok {
		return pkg, nil
	}
	bp, err := build.Default.Import(path, dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range append(append([]string(nil), bp.GoFiles...), bp.CgoFiles...) {
		f, err := parser.ParseFile(im.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{
		IgnoreFuncBodies: true,
		FakeImportC:      len(bp.CgoFiles) > 0,
		Importer:         im,
		Sizes:            im.sizes,
	}
	pkg, err := conf.Check(bp.ImportPath, im.fset, files, nil)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = pkg
	return pkg, nil
}

// Purging function bodies must not change the checked API of any
// standard-library package: every package-scope object, exported or not,
// prints the same, and every named type has the same pointer method set.
func TestPurgeKeepsStdAPI(t *testing.T) {
	roots := []string{"net/http", "go/types", "html/template", "crypto/tls", "log/slog", "testing", "runtime"}
	purged := newStdImporter(token.NewFileSet())
	full := &fullBodyImporter{fset: token.NewFileSet(), sizes: purged.sizes, pkgs: map[string]*types.Package{}}
	api := func(im types.Importer) map[string][]string {
		seen := map[string]*types.Package{}
		for _, path := range roots {
			pkg, err := im.Import(path)
			if err != nil {
				t.Fatal(err)
			}
			closure(t, pkg, seen)
		}
		out := map[string][]string{}
		for path, pkg := range seen {
			var lines []string
			for _, name := range pkg.Scope().Names() {
				obj := pkg.Scope().Lookup(name)
				lines = append(lines, types.ObjectString(obj, nil))
				if _, ok := obj.(*types.TypeName); ok {
					ms := types.NewMethodSet(types.NewPointer(obj.Type()))
					for i := range ms.Len() {
						lines = append(lines, "  "+ms.At(i).String())
					}
				}
			}
			out[path] = lines
		}
		return out
	}
	want, got := api(full), api(purged)
	if len(got) != len(want) {
		t.Errorf("purged closure has %d packages, full-body closure %d", len(got), len(want))
	}
	for path, lines := range want {
		if !slices.Equal(got[path], lines) {
			t.Errorf("%s: purged API differs:\n%s\nfull-body API:\n%s", path,
				strings.Join(got[path], "\n"), strings.Join(lines, "\n"))
		}
	}
}
