package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return file.Decls[0].(*ast.FuncDecl).Body
}

func TestBuildCFGIfJoin(t *testing.T) {
	g := BuildCFG(parseBody(t, `
		a()
		if x {
			b()
		} else {
			c()
		}
		d()
	`))
	var join *Block
	for _, b := range g.Blocks {
		if b.Kind == BlockJoin {
			join = b
		}
	}
	if join == nil {
		t.Fatal("no join block")
	}
	if len(join.Preds) != 2 {
		t.Fatalf("join preds = %d, want 2", len(join.Preds))
	}
	// The fall-off end of the body reaches the exit via a Fall edge.
	var fall bool
	for _, e := range g.Exit.Preds {
		if e.Fall {
			fall = true
		}
	}
	if !fall {
		t.Fatal("no fall edge into exit")
	}
}

func TestBuildCFGLoopBackEdge(t *testing.T) {
	g := BuildCFG(parseBody(t, `
		for i := 0; i < n; i++ {
			if x {
				break
			}
			b()
		}
		c()
	`))
	var head, exit *Block
	for _, b := range g.Blocks {
		if b.Kind == BlockLoopHead {
			head = b
		}
		if b.Kind == BlockLoopExit {
			exit = b
		}
	}
	if head == nil || exit == nil {
		t.Fatal("missing loop head or loop exit block")
	}
	var back int
	for _, e := range head.Preds {
		if e.Back {
			back++
		}
	}
	if back != 1 {
		t.Fatalf("loop head back edges = %d, want 1", back)
	}
	// Condition-false edge plus the break edge both land on the loop exit.
	if len(exit.Preds) != 2 {
		t.Fatalf("loop exit preds = %d, want 2", len(exit.Preds))
	}
}

func TestBuildCFGSwitchFallthrough(t *testing.T) {
	g := BuildCFG(parseBody(t, `
		switch v {
		case 1:
			a()
			fallthrough
		case 2:
			b()
		}
		c()
	`))
	// The first clause must reach the second clause's block directly.
	var join *Block
	for _, b := range g.Blocks {
		if b.Kind == BlockJoin {
			join = b
		}
	}
	if join == nil {
		t.Fatal("no join block")
	}
	// Clause 2 end + no-match head edge reach the join; clause 1 fell through.
	if len(join.Preds) != 2 {
		t.Fatalf("switch join preds = %d, want 2 (clause-2 end + no-match edge)", len(join.Preds))
	}
}

// mustCall is a toy forward must-analysis: the fact is the set of function
// names called on EVERY path so far.  Join intersects.
type mustCall struct{}

func (mustCall) Boundary() any { return map[string]bool{} }

func (mustCall) Transfer(b *Block, in any) any {
	out := map[string]bool{}
	for name := range in.(map[string]bool) {
		out[name] = true
	}
	for _, n := range b.Nodes {
		ast.Inspect(n, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					out[id.Name] = true
				}
			}
			return true
		})
	}
	return out
}

func (mustCall) Join(b *Block, in []EdgeFact) any {
	out := map[string]bool{}
	for name := range in[0].Fact.(map[string]bool) {
		ok := true
		for _, ef := range in[1:] {
			if !ef.Fact.(map[string]bool)[name] {
				ok = false
				break
			}
		}
		if ok {
			out[name] = true
		}
	}
	return out
}

func (mustCall) Equal(a, b any) bool {
	x, y := a.(map[string]bool), b.(map[string]bool)
	if len(x) != len(y) {
		return false
	}
	for k := range x {
		if !y[k] {
			return false
		}
	}
	return true
}

func names(fact any) string {
	var ns []string
	for n := range fact.(map[string]bool) {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, ",")
}

func TestSolveForwardBranches(t *testing.T) {
	g := BuildCFG(parseBody(t, `
		a()
		if x {
			b()
			return
		}
		c()
	`))
	in := Solve(g, mustCall{})
	// Exit joins the return path {a,b} and the fall path {a,c}: only a() is
	// called on every path.
	got := names(in[g.Exit])
	if got != "a" {
		t.Fatalf("calls on all paths = %q, want %q", got, "a")
	}
}

func TestSolveForwardLoopFixpoint(t *testing.T) {
	g := BuildCFG(parseBody(t, `
		a()
		for i := 0; i < n; i++ {
			b()
		}
		c()
	`))
	in := Solve(g, mustCall{})
	// b() runs zero times on the loop-skip path, so only a and c are
	// guaranteed after the loop.
	got := names(in[g.Exit])
	if got != "a,c" {
		t.Fatalf("calls on all paths = %q, want %q", got, "a,c")
	}
}

// refinedCall refines edges: any edge whose condition is exactly `x` kills
// the true path, demonstrating FlowThrough path pruning.
type refinedCall struct{ mustCall }

func (refinedCall) FlowThrough(e *Edge, fact any) any {
	if id, ok := e.Cond.(*ast.Ident); ok && id.Name == "x" && !e.Negate {
		return nil
	}
	return fact
}

func TestSolveEdgeRefinement(t *testing.T) {
	g := BuildCFG(parseBody(t, `
		a()
		if x {
			b()
		}
		c()
	`))
	in := Solve(g, refinedCall{})
	// The x-true edge is pruned, so the then-branch never executes: the only
	// surviving path is a();c().
	got := names(in[g.Exit])
	if got != "a,c" {
		t.Fatalf("calls on surviving paths = %q, want %q", got, "a,c")
	}
}
