package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"deltartos/internal/analysis/framework"
	"deltartos/internal/analysis/passes"
)

// snapshotPath is the frozen lint input: the module's non-test Go packages
// at the commit that defined this benchmark (README.md has the recipe).
// Linting a fixed tree keeps the workload the same while later changes edit
// the live one.
const snapshotPath = "_perfbench/testdata/snapshot.tar.gz"

// snapshotDigest is the SHA-256 of the archive; setup refuses any other.
const snapshotDigest = "851f7a075c271dd7b0229d1544315c46f139c8ec4de47ec9c63e49858bcf4584"

// lintPassNames are the deltalint passes in reporting order; setup checks
// passes.All() still matches, since each is a per-layer metric.
var lintPassNames = []string{"lockorder", "lockpair", "claims", "ceiling", "memlife", "determinism", "tracekind", "ipc", "blocking", "races"}

// lintModule is the lint_module workload: load the snapshot module from
// scratch and run all ten deltalint passes over every package, as
// `deltalint ./...` does.  One load plus the passes is an iteration; one
// pass over one package is an operation.
type lintModule struct {
	cfg     config
	archive []byte // the verified snapshot archive
	dir     string // the snapshot, unpacked by prepare

	ref  string          // findings and results digest of the warm-up
	outs map[int]lintOut // pending checks, by iteration

	passS       map[string][]float64
	packages    int
	diagnostics int
}

// lintOut is what one iteration leaves for its check: every pass's
// findings and result, hashed only in check so the hashing is not timed.
type lintOut struct {
	runs       []lintRun
	typeErrors int
	err        error
}

type lintRun struct {
	pkg   *framework.Package
	pass  string
	diags []framework.Diagnostic
	res   any
	err   error
}

func newLintModule(cfg config) workload {
	return &lintModule{cfg: cfg, outs: map[int]lintOut{}, passS: map[string][]float64{}}
}

// prepare verifies the snapshot archive and unpacks it into a fresh
// directory under the system temporary directory, for LoadModule to read.
func (l *lintModule) prepare() error {
	var names []string
	for _, a := range passes.All() {
		names = append(names, a.Name)
	}
	if strings.Join(names, ",") != strings.Join(lintPassNames, ",") {
		return fmt.Errorf("deltalint passes are %v, the benchmark expects %v", names, lintPassNames)
	}
	data, err := os.ReadFile(filepath.Join(l.cfg.root, snapshotPath))
	if err != nil {
		return err
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != snapshotDigest {
		return fmt.Errorf("%s: digest %x, pinned %s", snapshotPath, sum, snapshotDigest)
	}
	l.archive = data
	if l.dir, err = os.MkdirTemp("", "perfbench-lint-"); err != nil {
		return err
	}
	err = walkTarGz(data, func(name string, body []byte) error {
		dst := filepath.Join(l.dir, name)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, body, 0o644)
	})
	if err != nil {
		os.RemoveAll(l.dir) // the unpacking error is the one to report
	}
	return err
}

// setup decompresses the snapshot in memory and parses every Go file in
// it, so a damaged input fails before any iteration.  It reads no file.
func (l *lintModule) setup() error {
	fset := token.NewFileSet()
	return walkTarGz(l.archive, func(name string, body []byte) error {
		if filepath.Ext(name) != ".go" {
			return nil
		}
		_, err := parser.ParseFile(fset, name, body, parser.SkipObjectResolution)
		return err
	})
}

// walkTarGz calls fn with the local path and contents of every regular
// file of a gzipped tar archive, in archive order.
func walkTarGz(data []byte, fn func(name string, body []byte) error) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	tr := tar.NewReader(zr)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if h.Typeflag != tar.TypeReg {
			continue
		}
		name := filepath.FromSlash(h.Name)
		if !filepath.IsLocal(name) {
			return fmt.Errorf("archive entry %q leaves the extraction directory", h.Name)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			return err
		}
		if err := fn(name, body); err != nil {
			return err
		}
	}
}

func (l *lintModule) iterate(i int, tr *Tracer) error {
	root := tr.Begin("lint", -1)
	sp := tr.Begin("framework.load", root)
	pkgs, err := framework.LoadModule(l.dir, "./...")
	tr.End(sp)
	if err != nil {
		l.outs[i] = lintOut{err: err}
		tr.End(root)
		return nil
	}
	// Package-major order, as framework.Run and cmd/deltalint use.
	analyzers := passes.All()
	out := lintOut{runs: make([]lintRun, 0, len(pkgs)*len(analyzers))}
	for _, pkg := range pkgs {
		out.typeErrors += len(pkg.TypeErrors)
		for _, a := range analyzers {
			sp := tr.Begin("passes."+a.Name, root)
			diags, res, err := framework.RunAnalyzer(pkg, a)
			tr.End(sp)
			out.runs = append(out.runs, lintRun{pkg, a.Name, diags, res, err})
		}
	}
	tr.End(root)
	if tr != nil {
		for name, ns := range selfTimes(tr.Spans()) {
			if name != "lint" {
				l.passS[name] = append(l.passS[name], float64(ns)/1e9)
			}
		}
	}
	l.packages = len(pkgs)
	l.outs[i] = out
	return nil
}

// digest hashes an iteration's findings and pass results and counts the
// findings.
func (o lintOut) digest() (string, int) {
	h := sha256.New()
	findings := 0
	for _, r := range o.runs {
		if r.err != nil {
			fmt.Fprintf(h, "error %s %s: %v\n", r.pkg.PkgPath, r.pass, r.err)
			continue
		}
		for _, d := range r.diags {
			fmt.Fprintf(h, "%s: %s: %s\n", r.pkg.Fset.Position(d.Pos), r.pass, d.Message)
		}
		findings += len(r.diags)
		if r.res != nil {
			b, err := json.Marshal(r.res)
			fmt.Fprintf(h, "result %s %s %s %v\n", r.pkg.PkgPath, r.pass, b, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), findings
}

// check requires the load to succeed without type errors and every
// iteration to reproduce the warm-up's findings and pass results exactly.
func (l *lintModule) check(i int) outcome {
	var o outcome
	out := l.outs[i]
	delete(l.outs, i)
	digest, findings := out.digest()
	if i == 0 && out.err == nil {
		l.ref = digest
	}
	l.diagnostics = findings
	o.check(out.err == nil && out.typeErrors == 0 && digest == l.ref,
		"iteration %d: findings digest %s, warm-up's %s (%d type errors, err=%v)", i, digest, l.ref, out.typeErrors, out.err)
	return o
}

// finish removes the unpacked snapshot; a leftover copy in the temporary
// directory is harmless, so failing to remove it is only reported.
func (l *lintModule) finish() outcome {
	if err := os.RemoveAll(l.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	return outcome{}
}

func (l *lintModule) figures() []Metric {
	return []Metric{{"findings", float64(l.diagnostics), "count"}}
}

func (l *lintModule) layers() map[string]float64 {
	ms := map[string]float64{
		"framework.load.s":        median(l.passS["framework.load"]),
		"framework.load.alloc_mb": l.loadAllocMB(),
		"framework.packages":      float64(l.packages),
		"passes.diagnostics":      float64(l.diagnostics),
	}
	for _, name := range lintPassNames {
		ms["passes."+name+".s"] = median(l.passS["passes."+name])
	}
	return ms
}

// loadAllocMB measures the bytes one LoadModule call allocates, in a load
// of its own outside the timed iterations.
func (l *lintModule) loadAllocMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	if _, err := framework.LoadModule(l.dir, "./..."); err != nil {
		return 0
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-alloc0) / 1e6
}
