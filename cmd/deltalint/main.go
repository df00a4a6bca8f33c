// Command deltalint is the project's static-analysis driver.  It runs the
// passes of internal/analysis/passes — lockorder, lockpair, claims, ceiling,
// memlife, determinism, tracekind, ipc, blocking and races — over the module
// and prints go-vet-style diagnostics:
//
//	file:line:col: [pass] message
//
// Usage:
//
//	go run ./cmd/deltalint ./...           # whole module (what `make lint` does)
//	go run ./cmd/deltalint ./internal/app  # one package
//	go run ./cmd/deltalint -run lockorder,ipc ./...   # a subset of passes
//	go run ./cmd/deltalint -json ./...     # machine-readable findings (CI artifact)
//	go run ./cmd/deltalint -claims claims.json ./...  # write the inferred claims manifest
//	go run ./cmd/deltalint -blocking blocking.json ./...  # write worst-case blocking bounds
//	go run ./cmd/deltalint -races races.json ./...    # write the inferred guard manifest
//	go run ./cmd/deltalint -cpuprofile cpu.pprof -memprofile mem.pprof ./...  # runtime/pprof profiles
//	go run ./cmd/deltalint -list           # one line per pass
//	go run ./cmd/deltalint -help           # pass documentation
//
// Exit status is 1 when any diagnostic is reported, 2 on load errors.
// See DESIGN.md §8–§9 for how these passes split deadlock analysis between
// compile time (this tool) and run time (the DDU/PDDA/DAU models).
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"deltartos/internal/analysis/framework"
	"deltartos/internal/analysis/passes"
	"deltartos/internal/claims"
	"deltartos/internal/profile"
	"deltartos/internal/races"
)

// finding is the JSON shape of one diagnostic.  The list is sorted by
// (file, line, col, pass, message) so output is stable across runs.
type finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

func main() { os.Exit(deltalint(os.Args[1:])) }

// deltalint is the command body.  It returns the exit status instead of
// exiting, so the profiles are written on every path out.
func deltalint(args []string) (code int) {
	fs := flag.NewFlagSet("deltalint", flag.ExitOnError)
	help := fs.Bool("help", false, "print pass documentation and exit")
	list := fs.Bool("list", false, "print one name-plus-synopsis line per pass and exit")
	run := fs.String("run", "", "comma-separated subset of passes to run")
	jsonOut := fs.Bool("json", false, "emit findings as a sorted JSON array on stdout")
	claimsOut := fs.String("claims", "", "write the inferred resource-claims manifest to this file")
	blockingOut := fs.String("blocking", "", "write the static worst-case blocking bounds to this file as JSON")
	racesOut := fs.String("races", "", "write the inferred shared-location guard manifest to this file as JSON")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: deltalint [-run pass,pass] [-json] [-claims file] [-blocking file] [-races file] packages...\n")
		fs.PrintDefaults()
	}
	prof := profile.Register(fs)
	fs.Parse(args)
	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "deltalint: %v\n", err)
		return 2
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "deltalint: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	analyzers := passes.All()
	if *help {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		return 0
	}
	if *list {
		for _, line := range passes.Summaries() {
			fmt.Println(line)
		}
		return 0
	}
	if *run != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*run, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var picked []*passes.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				picked = append(picked, a)
				delete(want, a.Name)
			}
		}
		if len(want) > 0 {
			var unknown []string
			for name := range want {
				unknown = append(unknown, name)
			}
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "deltalint: unknown pass(es) in -run: %s\n", strings.Join(unknown, ", "))
			return 2
		}
		if len(picked) == 0 {
			fmt.Fprintf(os.Stderr, "deltalint: no passes match -run=%s\n", *run)
			return 2
		}
		analyzers = picked
	}
	// Each manifest flag writes the result of the pass of the same name;
	// refuse to write an empty manifest when -run leaves that pass out.
	for _, out := range []struct{ pass, file string }{
		{"claims", *claimsOut}, {"blocking", *blockingOut}, {"races", *racesOut},
	} {
		if out.file != "" && !slices.ContainsFunc(analyzers, func(a *passes.Analyzer) bool { return a.Name == out.pass }) {
			fmt.Fprintf(os.Stderr, "deltalint: -%s requires the %s pass (add it to -run)\n", out.pass, out.pass)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "deltalint: %v\n", err)
		return 2
	}
	pkgs, err := framework.LoadModule(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deltalint: %v\n", err)
		return 2
	}
	loadFailed := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "deltalint: %s: %v\n", pkg.PkgPath, terr)
			loadFailed = true
		}
	}
	if loadFailed {
		return 2
	}

	// Drive each analyzer ourselves (rather than framework.Run) so the
	// claims pass's manifest results and the blocking pass's bounds can be
	// merged across packages.
	var findings []finding
	manifest := &claims.Manifest{Module: "deltartos"}
	blocking := &passes.BlockingResult{Bounds: []passes.BlockingBound{}}
	guards := &races.Manifest{Module: "deltartos", Scenarios: []races.Scenario{}}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			diags, res, err := framework.RunAnalyzer(pkg, a)
			if err != nil {
				fmt.Fprintf(os.Stderr, "deltalint: %v\n", err)
				return 2
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				findings = append(findings, finding{
					File:    pos.Filename,
					Line:    pos.Line,
					Col:     pos.Column,
					Pass:    d.Analyzer,
					Message: d.Message,
				})
			}
			if m, ok := res.(*claims.Manifest); ok && m != nil {
				manifest.Scenarios = append(manifest.Scenarios, m.Scenarios...)
			}
			if br, ok := res.(*passes.BlockingResult); ok && br != nil {
				blocking.Bounds = append(blocking.Bounds, br.Bounds...)
			}
			if gm, ok := res.(*races.Manifest); ok && gm != nil {
				guards.Scenarios = append(guards.Scenarios, gm.Scenarios...)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})

	if *claimsOut != "" {
		data, err := manifest.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "deltalint: encode claims manifest: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*claimsOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "deltalint: %v\n", err)
			return 2
		}
	}

	if *blockingOut != "" {
		slices.SortFunc(blocking.Bounds, compareBounds)
		data, err := json.MarshalIndent(blocking, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "deltalint: encode blocking bounds: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*blockingOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "deltalint: %v\n", err)
			return 2
		}
	}

	if *racesOut != "" {
		data, err := guards.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "deltalint: encode guard manifest: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*racesOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "deltalint: %v\n", err)
			return 2
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{} // encode as [] rather than null
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "deltalint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Pass, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "deltalint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// compareBounds orders the -blocking manifest by scenario and task, then by
// every remaining field, so bounds that share a scenario and task name (the
// module has three Attach/Attach bounds) always land in the same order and
// the manifest depends on the code only, not on the sort's tie handling.
func compareBounds(a, b passes.BlockingBound) int {
	return cmp.Or(
		cmp.Compare(a.Scenario, b.Scenario),
		cmp.Compare(a.Task, b.Task),
		cmp.Compare(a.Prio, b.Prio),
		compareBool(a.HasPrio, b.HasPrio),
		cmp.Compare(a.Direct, b.Direct),
		cmp.Compare(a.Ceiling, b.Ceiling),
		cmp.Compare(a.Chain, b.Chain),
		cmp.Compare(a.Overhead, b.Overhead),
		cmp.Compare(a.Total, b.Total),
		compareBool(a.Finite, b.Finite),
		slices.Compare(a.Reasons, b.Reasons),
		slices.Compare(a.Waits, b.Waits),
		slices.Compare(a.DependsOn, b.DependsOn),
	)
}

// compareBool orders false before true.
func compareBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	}
	return -1
}
