package framework

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sync"
)

// stdImporter type-checks standard-library packages from GOROOT source —
// exported API only, function bodies skipped — and memoizes them by import
// path.  It does the work of go/importer's "source" importer, which
// re-resolves the package directory (reading the header of every file in
// it, tests included) on each import request, even for packages it has
// already checked.  Over this module that re-resolution cost more than the
// type-checking itself; here each package is resolved once.
type stdImporter struct {
	ctxt  *build.Context
	fset  *token.FileSet
	sizes types.Sizes
	// pkgs maps an import path to its package; nil while it is being
	// checked, so a revisit is an import cycle.
	pkgs map[string]*types.Package
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	ctxt := &build.Default
	return &stdImporter{
		ctxt:  ctxt,
		fset:  fset,
		sizes: types.SizesFor(ctxt.Compiler, ctxt.GOARCH),
		pkgs:  map[string]*types.Package{},
	}
}

// Import implements types.Importer.
func (im *stdImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom; dir resolves GOROOT-vendored
// imports of standard-library packages.
func (im *stdImporter) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := im.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through package %q", path)
		}
		return pkg, nil
	}
	bp, err := im.ctxt.Import(path, dir, 0)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = nil
	pkg, err := im.check(bp)
	if err != nil {
		delete(im.pkgs, path)
		return nil, err
	}
	im.pkgs[path] = pkg
	return pkg, nil
}

// check parses and type-checks one resolved package.  Cgo files are checked
// against a fake "C" package (the generated cgo bindings are not built), so
// C-typed declarations come out invalid while the Go API stays intact.
func (im *stdImporter) check(bp *build.Package) (*types.Package, error) {
	names := append(append([]string(nil), bp.GoFiles...), bp.CgoFiles...)
	files := make([]*ast.File, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			files[i], errs[i] = parser.ParseFile(im.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var hardErr error
	conf := types.Config{
		IgnoreFuncBodies: true,
		FakeImportC:      len(bp.CgoFiles) > 0,
		Importer:         im,
		Sizes:            im.sizes,
		Error: func(err error) {
			if hardErr == nil && !err.(types.Error).Soft {
				hardErr = err
			}
		},
	}
	pkg, err := conf.Check(bp.ImportPath, im.fset, files, nil)
	if hardErr != nil {
		err = hardErr
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking package %q failed (%v)", bp.ImportPath, err)
	}
	return pkg, nil
}
