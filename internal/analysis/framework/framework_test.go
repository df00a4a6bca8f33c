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
