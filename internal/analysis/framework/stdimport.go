package framework

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sync"
)

// stdImporter type-checks standard-library packages from GOROOT source —
// exported API only — and memoizes them by import path.  It does the work
// of go/importer's "source" importer, which re-resolves the package
// directory (reading the header of every file in it, tests included) on
// each import request, even for packages it has already checked.  Over
// this module that re-resolution cost more than the type-checking itself;
// here each package is resolved once.  Function bodies are blanked before parsing
// (purgeFuncBodies), since the check ignores them anyway, and a package is
// checked as soon as its imports are, so independent packages are checked
// concurrently.  It is safe for concurrent use.
type stdImporter struct {
	ctxt  *build.Context
	fset  *token.FileSet
	sizes types.Sizes
	// slots bounds the packages being parsed and checked at once.
	slots chan struct{}

	mu sync.Mutex
	// pkgs maps an import path, as first requested, to its package.
	pkgs map[string]*stdPackage
}

// stdPackage is one standard-library package: resolved and linked to its
// imports under stdImporter.mu, then checked by a goroutine of its own.
type stdPackage struct {
	bp      *build.Package
	imports map[string]*stdPackage // by import path as written in bp
	// resolving is set while the package's imports are being resolved, so
	// reaching it again then is an import cycle.
	resolving bool
	done      chan struct{} // closed once pkg or err is final
	pkg       *types.Package
	err       error
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	ctxt := &build.Default
	return &stdImporter{
		ctxt:  ctxt,
		fset:  fset,
		sizes: types.SizesFor(ctxt.Compiler, ctxt.GOARCH),
		slots: make(chan struct{}, runtime.GOMAXPROCS(0)),
		pkgs:  map[string]*stdPackage{},
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
	im.mu.Lock()
	p := im.resolve(path, dir)
	im.mu.Unlock()
	<-p.done
	return p.pkg, p.err
}

// resolve returns the package for path, first resolving it and every
// import it reaches that no earlier call resolved, and starting the check
// of each.  A package is fully linked to its imports before its check
// starts, so a package resolved by an earlier call never leads back to
// one this call is resolving: every import cycle is found here, and no
// check waits on itself.  Called with im.mu held.
func (im *stdImporter) resolve(path, dir string) *stdPackage {
	if p, ok := im.pkgs[path]; ok {
		if p.resolving {
			p.err = fmt.Errorf("import cycle through package %q", path)
		}
		return p
	}
	p := &stdPackage{done: make(chan struct{}), resolving: true}
	im.pkgs[path] = p
	p.bp, p.err = im.ctxt.Import(path, dir, 0)
	if p.err == nil {
		p.imports = map[string]*stdPackage{}
		for _, imp := range p.bp.Imports {
			if imp != "C" && imp != "unsafe" {
				p.imports[imp] = im.resolve(imp, p.bp.Dir)
			}
		}
	}
	p.resolving = false
	if p.err != nil {
		close(p.done)
		return p
	}
	go im.check(p)
	return p
}

// check waits for p's imports, then parses and type-checks it.  Cgo files
// are checked against a fake "C" package (the generated cgo bindings are
// not built), so C-typed declarations come out invalid while the Go API
// stays intact.
func (im *stdImporter) check(p *stdPackage) {
	defer close(p.done)
	for _, path := range p.bp.Imports {
		if dep := p.imports[path]; dep != nil {
			<-dep.done
		}
	}
	im.slots <- struct{}{}
	defer func() { <-im.slots }()

	bp := p.bp
	names := append(append([]string(nil), bp.GoFiles...), bp.CgoFiles...)
	files := make([]*ast.File, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			files[i], errs[i] = im.parse(filepath.Join(bp.Dir, name))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			p.err = err
			return
		}
	}
	var hardErr error
	conf := types.Config{
		IgnoreFuncBodies: true,
		FakeImportC:      len(bp.CgoFiles) > 0,
		Importer:         p,
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
		p.err = fmt.Errorf("type-checking package %q failed (%v)", bp.ImportPath, err)
		return
	}
	p.pkg = pkg
}

// parse reads one file, blanks its function bodies and parses it.
func (im *stdImporter) parse(filename string) (*ast.File, error) {
	src, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	purgeFuncBodies(src)
	return parser.ParseFile(im.fset, filename, src, parser.SkipObjectResolution)
}

// Import implements types.Importer for the check of p: every import is one
// p was linked to and is checked by now.
func (p *stdPackage) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	dep, ok := p.imports[path]
	if !ok {
		return nil, fmt.Errorf("package %q does not list import %q", p.bp.ImportPath, path)
	}
	return dep.pkg, dep.err
}
