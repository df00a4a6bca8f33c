package framework

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// loadTiny loads a one-file, import-free package "p" from a fresh tree.
func loadTiny(t *testing.T) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "p"), 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package p\n\nfunc F() {}\n"
	if err := os.WriteFile(filepath.Join(dir, "p", "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(Config{RootDir: dir}, "p")
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("load: %v (%d packages)", err, len(pkgs))
	}
	return pkgs[0]
}

// A required analyzer runs once per package however many analyzers require
// it; its diagnostics stay out of the requiring analyzers' output, its error
// comes back from RunAnalyzer, and a fresh load starts a fresh memo.
func TestRunAnalyzerMemoizesRequires(t *testing.T) {
	runs := 0
	var fail error
	shared := &Analyzer{
		Name: "shared",
		Run: func(pass *Pass) (any, error) {
			runs++
			pass.Reportf(pass.Files[0].Pos(), "from the shared analyzer")
			return runs, fail
		},
	}
	consumer := func(name string) *Analyzer {
		return &Analyzer{
			Name:     name,
			Requires: []*Analyzer{shared},
			Run: func(pass *Pass) (any, error) {
				pass.Reportf(pass.Files[0].Pos(), "from %s", name)
				return pass.ResultOf[shared], nil
			},
		}
	}
	a, b := consumer("a"), consumer("b")

	pkg := loadTiny(t)
	for _, c := range []*Analyzer{a, b} {
		diags, res, err := RunAnalyzer(pkg, c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if res != 1 {
			t.Errorf("%s: ResultOf[shared] = %v, want the first run's result 1", c.Name, res)
		}
		if len(diags) != 1 || diags[0].Analyzer != c.Name {
			t.Errorf("%s: diagnostics %+v, want only its own", c.Name, diags)
		}
	}
	if runs != 1 {
		t.Errorf("shared ran %d times on one package, want 1", runs)
	}

	if _, _, err := RunAnalyzer(loadTiny(t), a); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Errorf("shared ran %d times over two loads, want 2", runs)
	}

	fail = errors.New("boom")
	pkg = loadTiny(t)
	for _, c := range []*Analyzer{a, b} {
		if _, _, err := RunAnalyzer(pkg, c); !errors.Is(err, fail) {
			t.Errorf("%s: err = %v, want the required analyzer's error", c.Name, err)
		}
	}
	if runs != 3 {
		t.Errorf("a failing shared analyzer ran %d times, want 3 (once per load)", runs)
	}
}

// Config.Overlay stands in for the disk: an overlay-only package tree under
// a root that does not exist loads, imports within the overlay resolve, and
// positions name the overlay files.  Beside a real directory, an overlay
// file replaces the disk file of the same name and the other disk files
// stay in the package.
func TestLoadOverlay(t *testing.T) {
	t.Run("missing root", func(t *testing.T) {
		root := filepath.Join(t.TempDir(), "missing")
		aGo, bGo := filepath.Join(root, "a", "a.go"), filepath.Join(root, "b", "b.go")
		pkgs, err := Load(Config{RootDir: root, Overlay: map[string][]byte{
			aGo: []byte("package a\n\nimport \"b\"\n\n// F calls into b.\nfunc F() int { return b.G() }\n"),
			bGo: []byte("package b\n\nfunc G() int { return 1 }\n"),
		}}, "a")
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) != 1 || pkgs[0].PkgPath != "a" {
			t.Fatalf("loaded %d packages, want a alone", len(pkgs))
		}
		pkg := pkgs[0]
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("type errors: %v", pkg.TypeErrors)
		}
		if pkg.Types.Scope().Lookup("F") == nil || pkg.Types.Imports()[0].Scope().Lookup("G") == nil {
			t.Errorf("a.F or b.G missing from the checked packages")
		}
		fn := pkg.Syntax[0].Decls[1]
		if pos := pkg.Fset.Position(fn.Pos()); pos.Filename != aGo || pos.Line != 6 {
			t.Errorf("F is at %s:%d, want %s:6", pos.Filename, pos.Line, aGo)
		}
		if _, err := os.Stat(root); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("loading created the root: %v", err)
		}
	})

	t.Run("shadows disk", func(t *testing.T) {
		root := t.TempDir()
		dir := filepath.Join(root, "p")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, src := range map[string]string{
			"p.go": "package p\n\nfunc OnDisk() {}\n",
			"q.go": "package p\n\nfunc Beside() {}\n",
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		pkgs, err := Load(Config{RootDir: root, Overlay: map[string][]byte{
			filepath.Join(dir, "p.go"): []byte("package p\n\nfunc InOverlay() {}\n"),
		}}, "p")
		if err != nil || len(pkgs) != 1 || len(pkgs[0].TypeErrors) > 0 {
			t.Fatalf("load: %v (%d packages)", err, len(pkgs))
		}
		scope := pkgs[0].Types.Scope()
		if scope.Lookup("InOverlay") == nil || scope.Lookup("Beside") == nil || scope.Lookup("OnDisk") != nil {
			t.Errorf("package scope %v, want InOverlay from the overlay and Beside from disk, not OnDisk", scope.Names())
		}
		if n := len(pkgs[0].Syntax); n != 2 {
			t.Errorf("%d files parsed, want 2", n)
		}
	})
}
