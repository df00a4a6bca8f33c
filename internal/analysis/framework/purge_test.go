package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// blanked is s with every byte but newlines turned into a space: what the
// purge leaves of a body.
func blanked(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '\n' {
			return r
		}
		return ' '
	}, s)
}

func TestPurgeFuncBodies(t *testing.T) {
	for _, tc := range []struct {
		name      string
		src, want string
	}{
		{
			name: "package-level composite literal of funcs",
			src:  "package p\n\nvar table = [...]func(int) (int, bool){\n\tfunc(x int) (int, bool) { return x, true },\n}\n\nfunc f(x int) (int, bool) { return x, false }\n",
			want: "package p\n\nvar table = [...]func(int) (int, bool){\n\tfunc(x int) (int, bool) { return x, true },\n}\n\nfunc f(x int) (int, bool) {" + blanked(" return x, false ") + "}\n",
		},
		{
			name: "func literal in a package-level var",
			src:  "package p\n\nvar f = func() int { return 1 }\n\nvar (\n\tg = func() {\n\t\tprintln()\n\t}\n)\n",
			want: "package p\n\nvar f = func() int { return 1 }\n\nvar (\n\tg = func() {\n\t\tprintln()\n\t}\n)\n",
		},
		{
			name: "struct and interface types in the signature",
			src:  "package p\n\nfunc f(x interface{ M() }) struct{ a int } {\n\treturn struct{ a int }{}\n}\n",
			want: "package p\n\nfunc f(x interface{ M() }) struct{ a int } {" + blanked("\n\treturn struct{ a int }{}\n") + "}\n",
		},
		{
			name: "result types that end in braces",
			src:  "package p\n\nfunc f() interface{ M() } { return nil }\nfunc g() map[string]struct{} { return nil }\nfunc h() func() { return nil }\n",
			want: "package p\n\nfunc f() interface{ M() } {" + blanked(" return nil ") + "}\nfunc g() map[string]struct{} {" + blanked(" return nil ") + "}\nfunc h() func() {" + blanked(" return nil ") + "}\n",
		},
		{
			name: "method receiver",
			src:  "package p\n\nfunc (r *T[K]) Set(m map[K]struct{}) { r.m = m }\n",
			want: "package p\n\nfunc (r *T[K]) Set(m map[K]struct{}) {" + blanked(" r.m = m ") + "}\n",
		},
		{
			name: "generic constraint",
			src:  "package p\n\nfunc F[T interface{ ~int }](x T) T { return x }\n",
			want: "package p\n\nfunc F[T interface{ ~int }](x T) T {" + blanked(" return x ") + "}\n",
		},
		{
			name: "braces in comments, strings, runes and raw strings",
			src:  "package p\n\n// func c() {\nvar s = \"func d() {\" /* { */\n\nfunc f() {\n\t_ = \"}\\\"{\"\n\t_ = '}'\n\t_ = '\\''\n\t_ = `}\n{`\n\t// }\n\t/* } */\n}\n\nfunc g() { _ = 1 }\n",
			want: "package p\n\n// func c() {\nvar s = \"func d() {\" /* { */\n\nfunc f() {" + blanked("\n\t_ = \"}\\\"{\"\n\t_ = '}'\n\t_ = '\\''\n\t_ = `}\n{`\n\t// }\n\t/* } */\n") + "}\n\nfunc g() {" + blanked(" _ = 1 ") + "}\n",
		},
		{
			name: "declaration without a body",
			src:  "package p\n\nfunc now() (sec int64, nsec int32)\n\nvar x = struct{ f func() }{f: func() {}}\n\nfunc g() { _ = x }\n",
			want: "package p\n\nfunc now() (sec int64, nsec int32)\n\nvar x = struct{ f func() }{f: func() {}}\n\nfunc g() {" + blanked(" _ = x ") + "}\n",
		},
		{
			name: "line directive kept",
			src:  "package p\n\nfunc f() {\n//line other.go:10\n\tprintln()\n}\n",
			want: "package p\n\nfunc f() {\n//line other.go:10\n" + blanked("\tprintln()\n") + "}\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := []byte(tc.src)
			purgeFuncBodies(src)
			if string(src) != tc.want {
				t.Errorf("purged:\n%s\nwant:\n%s", src, tc.want)
			}
			if _, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0); err != nil {
				t.Errorf("purged source does not parse: %v", err)
			}
		})
	}
}

// A declaration after a purged body keeps its line:col, and the purge
// allocates nothing.
func TestPurgeKeepsPositions(t *testing.T) {
	const src = "package p\n\nfunc f(x int) int {\n\tif x > 0 {\n\t\treturn x // }\n\t}\n\treturn `{\n`[0]\n}\n\n\ttype T struct{ a int }\n\nfunc (T) M() {}\n"
	positions := func(src []byte) []string {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, d := range f.Decls {
			out = append(out, fset.Position(d.Pos()).String()+" "+fset.Position(d.End()).String())
			if fd, ok := d.(*ast.FuncDecl); ok {
				out = append(out, "body "+fset.Position(fd.Body.Rbrace).String())
			}
		}
		return out
	}
	want := positions([]byte(src))
	purged := []byte(src)
	purgeFuncBodies(purged)
	got := positions(purged)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("positions after the purge:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	buf := []byte(src)
	if n := testing.AllocsPerRun(10, func() { purgeFuncBodies(buf) }); n != 0 {
		t.Errorf("purgeFuncBodies allocates %v times per call", n)
	}
}
