// Package framework is a small, dependency-free mirror of the
// golang.org/x/tools/go/analysis API, built entirely on the standard
// library's go/parser and go/types.  The container this repository builds in
// has no module cache and the project pins zero external dependencies, so
// instead of importing x/tools the deltalint passes run on this framework:
// an Analyzer receives a type-checked Pass per package and reports
// position-attributed Diagnostics, exactly like the original — only the
// loader differs (see loader.go).
//
// The deliberate API mirroring means the passes port to the real
// go/analysis multichecker by changing imports only, should a vendored
// x/tools ever become available.  Results are shared the go/analysis way,
// through Analyzer.Requires and Pass.ResultOf; RunAnalyzer computes each
// required result once per Package.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics ("lockorder", ...).
	Name string
	// Doc is the one-paragraph description shown by `deltalint -help`.
	Doc string
	// Run executes the pass over one package and may return a
	// pass-specific result value (used by cross-check tests).
	Run func(*Pass) (any, error)
	// Requires lists the analyzers whose results Run reads from
	// Pass.ResultOf.  They must not form a cycle.
	Requires []*Analyzer
}

// Pass is the per-package unit of work handed to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info
	// ResultOf holds the result of each analyzer in Analyzer.Requires,
	// shared with every other analyzer requiring it: treat it as read-only.
	ResultOf map[*Analyzer]any
	// Report records one diagnostic.
	Report func(Diagnostic)
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message.  The driver attaches
// the analyzer name when printing.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the driver
}

// memoResult is a required analyzer's outcome on one package.
type memoResult struct {
	res any
	err error
}

// RunAnalyzer executes one analyzer over one loaded package and returns its
// diagnostics (sorted by position) plus the analyzer's result value.  Each
// required analyzer runs at most once per Package, its result and error
// memoized on pkg and its diagnostics dropped, as in go/analysis; so a
// Package must be analyzed by one goroutine at a time.
func RunAnalyzer(pkg *Package, a *Analyzer) ([]Diagnostic, any, error) {
	resultOf := make(map[*Analyzer]any, len(a.Requires))
	for _, req := range a.Requires {
		m, ok := pkg.memo[req]
		if !ok {
			_, m.res, m.err = RunAnalyzer(pkg, req)
			pkg.memo[req] = m
		}
		if m.err != nil {
			return nil, nil, m.err
		}
		resultOf[req] = m.res
	}
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Syntax,
		Pkg:       pkg.Types,
		PkgPath:   pkg.PkgPath,
		TypesInfo: pkg.TypesInfo,
		ResultOf:  resultOf,
		Report: func(d Diagnostic) {
			d.Analyzer = a.Name
			diags = append(diags, d)
		},
	}
	res, err := a.Run(pass)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
	}
	sortDiagnostics(pkg.Fset, diags)
	return diags, res, nil
}

// Run executes every analyzer over every package and returns all
// diagnostics sorted by file position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			diags, _, err := RunAnalyzer(pkg, a)
			if err != nil {
				return nil, err
			}
			all = append(all, diags...)
		}
	}
	if len(pkgs) > 0 {
		sortDiagnostics(pkgs[0].Fset, all)
	}
	return all, nil
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Message < diags[j].Message
	})
}
