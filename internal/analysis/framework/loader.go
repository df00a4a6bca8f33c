package framework

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// TypeErrors holds any type-check errors; the passes still run on a
	// partially-checked package, mirroring go/analysis behaviour, but the
	// driver treats them as fatal.
	TypeErrors []error

	// memo holds the results of required analyzers (see RunAnalyzer), so
	// a shared analysis runs once per package.
	memo map[*Analyzer]memoResult
}

// Config directs a Load.
type Config struct {
	// RootDir is the directory tree the packages live under.
	RootDir string
	// ModulePath, when non-empty, is the import-path prefix that maps to
	// RootDir (read from go.mod by LoadModule).  When empty, import paths
	// are bare directory names under RootDir — the layout analysistest
	// uses for its testdata/src trees.
	ModulePath string
	// IncludeTests parses _test.go files of the target packages too.
	// In-package test files only; external _test packages are not loaded.
	IncludeTests bool
	// Overlay maps absolute file paths to contents, as in go/packages: a
	// package directory lists its overlay files beside (and in place of)
	// the files on disk, and an overlay file is parsed from its contents.
	// A directory may exist only in the overlay, under a RootDir that does
	// not exist.  The `...` patterns walk the disk only.
	Overlay map[string][]byte
}

// loader resolves and type-checks packages on demand.  Module-internal
// imports are checked from source in dependency order; everything else
// (the standard library) is delegated to the stdlib source importer in
// stdimport.go.
type loader struct {
	cfg      Config
	fset     *token.FileSet
	std      *stdImporter
	pkgs     map[string]*Package
	checking map[string]bool
	overlay  map[string][]byte   // Config.Overlay under clean paths
	dirFiles map[string][]string // directory -> its overlay file names
}

func newLoader(cfg Config) *loader {
	fset := token.NewFileSet()
	ld := &loader{
		cfg:      cfg,
		fset:     fset,
		std:      newStdImporter(fset),
		pkgs:     map[string]*Package{},
		checking: map[string]bool{},
		overlay:  map[string][]byte{},
		dirFiles: map[string][]string{},
	}
	//deltalint:ordered goFiles sorts each directory's names
	for file, src := range cfg.Overlay {
		file = filepath.Clean(file)
		ld.overlay[file] = src
		dir := filepath.Dir(file)
		ld.dirFiles[dir] = append(ld.dirFiles[dir], filepath.Base(file))
	}
	return ld
}

// ModuleRoot walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func ModuleRoot(dir string) (root, modpath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("framework: no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("framework: no go.mod above %s", abs)
		}
	}
}

// LoadModule loads packages of the module containing dir.  Patterns are
// import paths, `./`-relative directories, or `./...` for every package
// under the module root.
func LoadModule(dir string, patterns ...string) ([]*Package, error) {
	root, modpath, err := ModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	return Load(Config{RootDir: root, ModulePath: modpath}, patterns...)
}

// Load loads and type-checks the packages matching patterns under
// cfg.RootDir.  The returned slice is sorted by import path.
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	ld := newLoader(cfg)
	paths, err := ld.expand(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, path := range paths {
		if _, err := ld.importPath(path); err != nil {
			return nil, fmt.Errorf("framework: load %s: %w", path, err)
		}
		if pkg := ld.pkgs[path]; pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// expand turns patterns into a sorted list of import paths.
func (ld *loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			dirs, err := ld.walkDirs(ld.cfg.RootDir)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				add(ld.pathForDir(d))
			}
		case strings.HasPrefix(pat, "./"):
			dir := filepath.Join(ld.cfg.RootDir, strings.TrimPrefix(pat, "./"))
			if strings.HasSuffix(pat, "/...") {
				dir = filepath.Join(ld.cfg.RootDir,
					strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/..."))
				dirs, err := ld.walkDirs(dir)
				if err != nil {
					return nil, err
				}
				for _, d := range dirs {
					add(ld.pathForDir(d))
				}
				continue
			}
			if !ld.hasGoFiles(dir) {
				return nil, fmt.Errorf("no Go files in %s", dir)
			}
			add(ld.pathForDir(dir))
		default:
			add(pat)
		}
	}
	sort.Strings(out)
	return out, nil
}

// walkDirs returns every directory under root that contains Go files,
// skipping testdata, vendored and hidden trees.
func (ld *loader) walkDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if ld.hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func (ld *loader) hasGoFiles(dir string) bool {
	names, _ := ld.goFiles(dir)
	for _, n := range names {
		if !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// goFiles lists the sorted names of the .go files in dir: those on disk
// and those of the overlay, each once.  A directory only the overlay has
// is no error.
func (ld *loader) goFiles(dir string) ([]string, error) {
	names := slices.Clone(ld.dirFiles[filepath.Clean(dir)])
	ents, err := os.ReadDir(dir)
	if err != nil && (len(names) == 0 || !errors.Is(err, fs.ErrNotExist)) {
		return nil, err
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	slices.Sort(names)
	return slices.Compact(names), nil
}

// pathForDir maps a directory under RootDir to its import path.
func (ld *loader) pathForDir(dir string) string {
	rel, err := filepath.Rel(ld.cfg.RootDir, dir)
	if err != nil || rel == "." {
		return ld.cfg.ModulePath
	}
	rel = filepath.ToSlash(rel)
	if ld.cfg.ModulePath == "" {
		return rel
	}
	return ld.cfg.ModulePath + "/" + rel
}

// dirForPath maps an import path to a directory under RootDir, or "" if the
// path is not part of the loaded tree (i.e. standard library).
func (ld *loader) dirForPath(path string) string {
	if ld.cfg.ModulePath != "" {
		if path == ld.cfg.ModulePath {
			return ld.cfg.RootDir
		}
		if rest, ok := strings.CutPrefix(path, ld.cfg.ModulePath+"/"); ok {
			return filepath.Join(ld.cfg.RootDir, filepath.FromSlash(rest))
		}
		return ""
	}
	dir := filepath.Join(ld.cfg.RootDir, filepath.FromSlash(path))
	if ld.hasGoFiles(dir) {
		return dir
	}
	return ""
}

// Import implements types.Importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: tree-internal packages are
// checked from source, everything else falls through to the stdlib source
// importer.
func (ld *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return ld.importPath(path)
}

func (ld *loader) importPath(path string) (*types.Package, error) {
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg.Types, nil
	}
	dir := ld.dirForPath(path)
	if dir == "" {
		return ld.std.ImportFrom(path, "", 0)
	}
	if ld.checking[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	ld.checking[path] = true
	defer delete(ld.checking, path)
	pkg, err := ld.check(path, dir)
	if err != nil {
		return nil, err
	}
	ld.pkgs[path] = pkg
	return pkg.Types, nil
}

// check parses and type-checks one directory as one package.
func (ld *loader) check(path, dir string) (*Package, error) {
	all, err := ld.goFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgName := ""
	for _, n := range all {
		if strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") ||
			strings.HasSuffix(n, "_test.go") && !ld.cfg.IncludeTests {
			continue
		}
		name := filepath.Join(dir, n)
		var src any // nil: the parser reads the file from disk
		if data, ok := ld.overlay[name]; ok {
			src = data
		}
		f, err := parser.ParseFile(ld.fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		// In-package files only: external test packages (pkg_test) would
		// need a second type-check universe, which no pass requires.
		if pkgName == "" && !strings.HasSuffix(f.Name.Name, "_test") {
			pkgName = f.Name.Name
		}
		if f.Name.Name == pkgName {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg := &Package{PkgPath: path, Dir: dir, Fset: ld.fset, TypesInfo: info, memo: map[*Analyzer]memoResult{}}
	conf := types.Config{
		Importer: ld,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(path, ld.fset, files, info)
	pkg.Syntax = files
	pkg.Types = tpkg
	return pkg, nil
}
