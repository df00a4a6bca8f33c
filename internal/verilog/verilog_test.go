package verilog

import (
	"strings"
	"testing"
	"testing/quick"
)

func sampleModule() *Module {
	m := &Module{Name: "adder", Comment: "toy adder"}
	m.AddPort("clk", Input, 1)
	m.AddPort("a", Input, 8)
	m.AddPort("b", Input, 8)
	m.AddOutputReg("sum", 9)
	m.AddWire("carry", 1)
	m.AddAssign("carry", "a[7] & b[7]")
	m.AddAlways("posedge clk", "sum <= a + b;")
	return m
}

func TestEmitBasicStructure(t *testing.T) {
	text := sampleModule().Emit()
	for _, want := range []string{
		"// toy adder",
		"module adder (",
		"input clk",
		"input [7:0] a",
		"output reg [8:0] sum",
		"wire carry;",
		"assign carry = a[7] & b[7];",
		"always @(posedge clk) begin",
		"sum <= a + b;",
		"endmodule",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Emit missing %q in:\n%s", want, text)
		}
	}
}

func TestEmitNoPortsModule(t *testing.T) {
	m := &Module{Name: "tb"}
	text := m.Emit()
	if !strings.Contains(text, "module tb;") {
		t.Errorf("portless module emit:\n%s", text)
	}
}

func TestEmitParameters(t *testing.T) {
	m := &Module{Name: "p", Parameters: []Param{{"WIDTH", "8"}, {"DEPTH", "4"}}}
	m.AddPort("x", Input, 1)
	text := m.Emit()
	if !strings.Contains(text, "parameter WIDTH = 8,") {
		t.Errorf("missing first parameter:\n%s", text)
	}
	if !strings.Contains(text, "parameter DEPTH = 4\n") {
		t.Errorf("last parameter should have no comma:\n%s", text)
	}
}

func TestEmitInstanceWithParams(t *testing.T) {
	m := &Module{Name: "top"}
	m.AddInstance(Instance{
		Module: "ddu",
		Name:   "u_ddu",
		Params: []Param{{"M", "5"}, {"N", "5"}},
		Conns:  []PortConn{{"clk", "clk"}, {"deadlock", "dl"}},
	})
	text := m.Emit()
	for _, want := range []string{"ddu #(.M(5), .N(5)) u_ddu (", ".clk(clk),", ".deadlock(dl)\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("instance emit missing %q:\n%s", want, text)
		}
	}
}

func TestEmitRegInit(t *testing.T) {
	m := &Module{Name: "m"}
	m.Nets = append(m.Nets, Net{Name: "state", Width: 4, Reg: true, Init: "4'd0"})
	text := m.Emit()
	if !strings.Contains(text, "reg [3:0] state = 4'd0;") {
		t.Errorf("reg init emit:\n%s", text)
	}
}

func TestEmitRawLines(t *testing.T) {
	m := &Module{Name: "m", Raw: []string{"initial $display(\"hi\");"}}
	if !strings.Contains(m.Emit(), "initial $display") {
		t.Error("raw lines not emitted")
	}
}

func TestCountLines(t *testing.T) {
	text := "module m;\n\nendmodule\n\n\n"
	if got := CountLines(text); got != 2 {
		t.Errorf("CountLines = %d, want 2", got)
	}
	if got := CountLines(""); got != 0 {
		t.Errorf("CountLines(\"\") = %d, want 0", got)
	}
	if got := CountLines("  \n\t\n"); got != 0 {
		t.Errorf("CountLines(whitespace) = %d, want 0", got)
	}
	if got := CountLines("a;\r\n \u00a0\nb;"); got != 2 {
		t.Errorf("CountLines(CRLF, no-break space, no final newline) = %d, want 2", got)
	}
}

func TestBitsFor(t *testing.T) {
	for _, c := range []struct{ v, want int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {16, 4}, {17, 5}, {1024, 10},
	} {
		if got := BitsFor(c.v); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestFileEmitAndNames(t *testing.T) {
	var f File
	f.Header = "generated by test"
	f.Add(&Module{Name: "b"})
	f.Add(&Module{Name: "a"})
	text := f.Emit()
	if !strings.HasPrefix(text, "// generated by test") {
		t.Errorf("file header missing:\n%s", text)
	}
	names := f.ModuleNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("ModuleNames = %v", names)
	}
}

func TestValidateIdent(t *testing.T) {
	good := []string{"a", "clk", "_x", "req_1", "a$b"}
	bad := []string{"", "1abc", "$x", "my-sig", "module", "reg", "a b"}
	for _, s := range good {
		if !ValidateIdent(s) {
			t.Errorf("ValidateIdent(%q) = false, want true", s)
		}
	}
	for _, s := range bad {
		if ValidateIdent(s) {
			t.Errorf("ValidateIdent(%q) = true, want false", s)
		}
	}
}

func TestCheckDetectsProblems(t *testing.T) {
	var f File
	m1 := f.Add(&Module{Name: "dup"})
	m1.AddPort("p", Input, 1)
	m1.AddPort("p", Output, 1)  // duplicate port
	m1.AddWire("p", 1)          // collides with port
	f.Add(&Module{Name: "dup"}) // duplicate module
	m3 := f.Add(&Module{Name: "top"})
	m3.AddInstance(Instance{Module: "missing", Name: "u0"})

	problems := f.Check(nil)
	wantSubstrings := []string{"duplicate port", "duplicate net", "duplicate module", "undefined module"}
	for _, w := range wantSubstrings {
		found := false
		for _, p := range problems {
			if strings.Contains(p, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Check missing problem %q in %v", w, problems)
		}
	}
}

func TestCheckExternAllowsVendorModules(t *testing.T) {
	var f File
	m := f.Add(&Module{Name: "top"})
	m.AddInstance(Instance{Module: "mpc755", Name: "u_pe0"})
	if problems := f.Check(map[string]bool{"mpc755": true}); len(problems) != 0 {
		t.Errorf("extern module flagged: %v", problems)
	}
	if problems := f.Check(nil); len(problems) == 0 {
		t.Errorf("missing extern should be flagged")
	}
}

func TestCheckCleanFile(t *testing.T) {
	var f File
	leaf := f.Add(&Module{Name: "leaf"})
	leaf.AddPort("x", Input, 1)
	top := f.Add(&Module{Name: "top"})
	top.AddInstance(Instance{Module: "leaf", Name: "u0", Conns: []PortConn{{"x", "1'b0"}}})
	if problems := f.Check(nil); len(problems) != 0 {
		t.Errorf("clean file produced problems: %v", problems)
	}
}

func TestPortDirString(t *testing.T) {
	if Input.String() != "input" || Output.String() != "output" || Inout.String() != "inout" {
		t.Error("PortDir.String mismatch")
	}
	if PortDir(42).String() != "input" {
		t.Error("unknown PortDir should default to input")
	}
}

// Property: every emitted module body has balanced module/endmodule pairs and
// non-blank line count equals CountLines.
func TestEmitBalancedProperty(t *testing.T) {
	f := func(nports, nwires uint8) bool {
		m := &Module{Name: "m"}
		for i := 0; i < int(nports%16); i++ {
			m.AddPort("p"+itoa(i), Input, 1+i%4)
		}
		for i := 0; i < int(nwires%16); i++ {
			m.AddWire("w"+itoa(i), 1+i%8)
		}
		text := m.Emit()
		return strings.Count(text, "module m") == 1 &&
			strings.Count(text, "endmodule") == 1 &&
			CountLines(text) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}
