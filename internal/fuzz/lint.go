// The deltalint round-trip: a sampled subset of generated scenarios is
// emitted as compilable Go source (the same task-closure shape the real
// scenarios in internal/app use) and analyzed by deltalint's actual
// lockorder and claims passes.  Their verdicts must agree with the direct
// derivation in static.go — which keeps "static ⊇ runtime" a standing fuzz
// invariant over the real analyzer code paths, not just over a private
// reimplementation.

package fuzz

import (
	"fmt"
	"path/filepath"
	"strings"

	"deltartos/internal/analysis/framework"
	"deltartos/internal/analysis/passes"
	"deltartos/internal/claims"
)

// EmitGo renders the scenario as a self-contained Go package in the shape
// deltalint's lock-flow engine recognizes: one scenario function creating
// one task closure per program, resource ops as Request/Release with
// constant ids, and a DeclareClaim per task covering its derived claim set
// (so the claims pass has declarations to check coverage against).
func EmitGo(sc *Scenario, st *Static) string {
	var b strings.Builder
	b.WriteString("// Code generated by deltartos/internal/fuzz; seed ")
	fmt.Fprintf(&b, "%d.\n", sc.Seed)
	b.WriteString(`package scenario

type TaskCtx struct{}

type Kernel struct{}

func (k *Kernel) CreateTask(name string, pe, prio, delay int, fn func(c *TaskCtx)) {}

type Manager struct{}

func (m *Manager) Request(c *TaskCtx, p, q int) {}
func (m *Manager) Release(c *TaskCtx, p, q int) {}

type Banker struct{}

func (b *Banker) DeclareClaim(p int, rs ...int) {}

`)
	fmt.Fprintf(&b, "// Scenario is generated: %d tasks x %d resources, seed %d.\n",
		sc.Cfg.Tasks, sc.Cfg.Resources, sc.Seed)
	b.WriteString("//\n//deltalint:deadlock-expected generated fuzz scenario; cycles are the point\n")
	b.WriteString("func Scenario(k *Kernel, m *Manager, b *Banker) {\n")
	for t := range sc.Progs {
		if cs := st.Claims(t); len(cs) > 0 {
			fmt.Fprintf(&b, "\tb.DeclareClaim(%d", t)
			for _, r := range cs {
				fmt.Fprintf(&b, ", %d", r)
			}
			b.WriteString(")\n")
		}
	}
	for t, prog := range sc.Progs {
		fmt.Fprintf(&b, "\tk.CreateTask(%q, 0, 1, 0, func(c *TaskCtx) {\n", prog.Name)
		for _, op := range prog.Ops {
			verb := "Release"
			if op.Acquire {
				verb = "Request"
			}
			fmt.Fprintf(&b, "\t\tm.%s(c, %d, %d)\n", verb, t, op.Res)
		}
		b.WriteString("\t})\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// lintRoot is the directory LintCheck's emitted package sits under.  It
// exists only in the loader's overlay: the round trip writes no file and
// reads none.
const lintRoot = "/deltafuzz-lint"

// LintCheck round-trips one scenario through the lockorder and claims
// passes and compares their verdicts against the direct derivation.  It
// returns a non-empty mismatch description when they disagree (and an
// error only for infrastructure failures: load, type check).
func LintCheck(sc *Scenario, st *Static) (mismatch string, err error) {
	src := filepath.Join(lintRoot, "scenario", "scenario.go")
	pkgs, err := framework.Load(framework.Config{
		RootDir: lintRoot,
		Overlay: map[string][]byte{src: []byte(EmitGo(sc, st))},
	}, "scenario")
	if err != nil {
		return "", err
	}
	if len(pkgs) != 1 {
		return "", fmt.Errorf("fuzz: lint loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	for _, terr := range pkg.TypeErrors {
		return "", fmt.Errorf("fuzz: emitted scenario does not type-check: %v", terr)
	}

	// Lockorder: whether the pass sees a cycle must agree with the derived
	// lock-order graph (both are may-analyses over the same programs).
	_, res, err := framework.RunAnalyzer(pkg, passes.LockOrder())
	if err != nil {
		return "", err
	}
	lockRes, ok := res.(*passes.LockOrderResult)
	if !ok {
		return "", fmt.Errorf("fuzz: lockorder returned %T", res)
	}
	if got, want := lockRes.HasCycle("Scenario"), st.HasCycle(); got != want {
		return fmt.Sprintf("seed %d: lockorder pass cycles=%v, derived static cycle=%v",
			sc.Seed, got, want), nil
	}

	// Claims: zero diagnostics (the emitted DeclareClaims cover every
	// request by construction) and a manifest matching the derivation.
	diags, res, err := framework.RunAnalyzer(pkg, passes.Claims())
	if err != nil {
		return "", err
	}
	if len(diags) > 0 {
		return fmt.Sprintf("seed %d: claims pass flagged a covered scenario: %s",
			sc.Seed, diags[0].Message), nil
	}
	man, ok := res.(*claims.Manifest)
	if !ok {
		return "", fmt.Errorf("fuzz: claims returned %T", res)
	}
	scn := man.Scenario("Scenario")
	if scn == nil {
		return fmt.Sprintf("seed %d: claims pass found no Scenario scope", sc.Seed), nil
	}
	inferred := scn.ResourceClaims()
	for t := range sc.Progs {
		want := st.Claims(t)
		got := inferred[t]
		if len(got) != len(want) {
			return fmt.Sprintf("seed %d: task p%d claims: pass inferred %v, derived %v",
				sc.Seed, t, got, want), nil
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Sprintf("seed %d: task p%d claims: pass inferred %v, derived %v",
					sc.Seed, t, got, want), nil
			}
		}
	}
	return "", nil
}
