// Package verilog provides a small structural Verilog-2001 AST and emitter.
//
// The δ framework generators (DDU, DAU, SoCLC, SoCDMMU, Archi_gen top-file
// generation) use this package to emit actual synthesizable-style Verilog
// text.  The paper's synthesis tables report "lines of Verilog" per generated
// unit; the emitter's line counts are the reproduction of that column.
package verilog

import (
	"fmt"
	"sort"
	"strings"
)

// PortDir is the direction of a module port.
type PortDir int

// Port directions.
const (
	Input PortDir = iota
	Output
	Inout
)

func (d PortDir) String() string {
	switch d {
	case Input:
		return "input"
	case Output:
		return "output"
	case Inout:
		return "inout"
	}
	return "input"
}

// Port is a module port with an optional vector range. Width 1 emits a scalar.
type Port struct {
	Name  string
	Dir   PortDir
	Width int
	Reg   bool // declare as output reg
}

// Net is an internal wire or reg declaration.
type Net struct {
	Name  string
	Width int
	Reg   bool
	Init  string // optional initial value expression for regs
}

// Assign is a continuous assignment `assign LHS = RHS;`.
type Assign struct {
	LHS string
	RHS string
}

// Instance instantiates a sub-module with named port connections.
type Instance struct {
	Module string
	Name   string
	Params []Param    // #(.N(4)) style parameters
	Conns  []PortConn // ordered port connections
}

// Param is a module parameter override on an instance.
type Param struct {
	Name  string
	Value string
}

// PortConn is a named port connection `.port(signal)`.
type PortConn struct {
	Port   string
	Signal string
}

// Always is a procedural block, emitted verbatim under its sensitivity list.
type Always struct {
	Sensitivity string   // e.g. "posedge clk or negedge rst_n", or "*"
	Body        []string // statement lines, emitted with one indent level
}

// Module is one Verilog module under construction.
type Module struct {
	Name       string
	Comment    string // optional header comment (may be multi-line)
	Parameters []Param
	Ports      []Port
	Nets       []Net
	Assigns    []Assign
	Instances  []Instance
	Alwayses   []Always
	Raw        []string // raw body lines appended before endmodule
}

// AddPort appends a port.
func (m *Module) AddPort(name string, dir PortDir, width int) *Module {
	m.Ports = append(m.Ports, Port{Name: name, Dir: dir, Width: width})
	return m
}

// AddOutputReg appends an `output reg` port.
func (m *Module) AddOutputReg(name string, width int) *Module {
	m.Ports = append(m.Ports, Port{Name: name, Dir: Output, Width: width, Reg: true})
	return m
}

// AddWire declares an internal wire.
func (m *Module) AddWire(name string, width int) *Module {
	m.Nets = append(m.Nets, Net{Name: name, Width: width})
	return m
}

// AddReg declares an internal reg.
func (m *Module) AddReg(name string, width int) *Module {
	m.Nets = append(m.Nets, Net{Name: name, Width: width, Reg: true})
	return m
}

// AddAssign appends a continuous assignment.
func (m *Module) AddAssign(lhs, rhs string) *Module {
	m.Assigns = append(m.Assigns, Assign{LHS: lhs, RHS: rhs})
	return m
}

// AddInstance appends a sub-module instance.
func (m *Module) AddInstance(inst Instance) *Module {
	m.Instances = append(m.Instances, inst)
	return m
}

// AddAlways appends a procedural block.
func (m *Module) AddAlways(sens string, body ...string) *Module {
	m.Alwayses = append(m.Alwayses, Always{Sensitivity: sens, Body: body})
	return m
}

func rangeDecl(width int) string {
	if width <= 1 {
		return ""
	}
	return fmt.Sprintf("[%d:0] ", width-1)
}

// Emit renders the module as Verilog source text.
func (m *Module) Emit() string {
	var b strings.Builder
	m.emit(&b)
	return b.String()
}

// emit appends the module's source text to b.
func (m *Module) emit(b *strings.Builder) {
	if m.Comment != "" {
		for _, line := range strings.Split(strings.TrimRight(m.Comment, "\n"), "\n") {
			fmt.Fprintf(b, "// %s\n", line)
		}
	}
	fmt.Fprintf(b, "module %s", m.Name)
	if len(m.Parameters) > 0 {
		b.WriteString(" #(\n")
		for i, p := range m.Parameters {
			comma := ","
			if i == len(m.Parameters)-1 {
				comma = ""
			}
			fmt.Fprintf(b, "  parameter %s = %s%s\n", p.Name, p.Value, comma)
		}
		b.WriteString(")")
	}
	if len(m.Ports) == 0 {
		b.WriteString(";\n")
	} else {
		b.WriteString(" (\n")
		for i, p := range m.Ports {
			comma := ","
			if i == len(m.Ports)-1 {
				comma = ""
			}
			kind := p.Dir.String()
			if p.Reg {
				kind += " reg"
			}
			fmt.Fprintf(b, "  %s %s%s%s\n", kind, rangeDecl(p.Width), p.Name, comma)
		}
		b.WriteString(");\n")
	}
	if len(m.Nets) > 0 {
		b.WriteString("\n")
		for _, n := range m.Nets {
			kind := "wire"
			if n.Reg {
				kind = "reg"
			}
			if n.Init != "" {
				fmt.Fprintf(b, "  %s %s%s = %s;\n", kind, rangeDecl(n.Width), n.Name, n.Init)
			} else {
				fmt.Fprintf(b, "  %s %s%s;\n", kind, rangeDecl(n.Width), n.Name)
			}
		}
	}
	if len(m.Assigns) > 0 {
		b.WriteString("\n")
		for _, a := range m.Assigns {
			fmt.Fprintf(b, "  assign %s = %s;\n", a.LHS, a.RHS)
		}
	}
	for _, inst := range m.Instances {
		b.WriteString("\n")
		fmt.Fprintf(b, "  %s", inst.Module)
		if len(inst.Params) > 0 {
			b.WriteString(" #(")
			for i, p := range inst.Params {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(b, ".%s(%s)", p.Name, p.Value)
			}
			b.WriteString(")")
		}
		fmt.Fprintf(b, " %s (\n", inst.Name)
		for i, c := range inst.Conns {
			comma := ","
			if i == len(inst.Conns)-1 {
				comma = ""
			}
			fmt.Fprintf(b, "    .%s(%s)%s\n", c.Port, c.Signal, comma)
		}
		b.WriteString("  );\n")
	}
	for _, a := range m.Alwayses {
		b.WriteString("\n")
		fmt.Fprintf(b, "  always @(%s) begin\n", a.Sensitivity)
		for _, line := range a.Body {
			fmt.Fprintf(b, "    %s\n", line)
		}
		b.WriteString("  end\n")
	}
	if len(m.Raw) > 0 {
		b.WriteString("\n")
		n := 0 // the raw lines are most of a large module: size b for them once
		for _, line := range m.Raw {
			n += len(line) + 3
		}
		b.Grow(n)
		for _, line := range m.Raw {
			b.WriteString("  ")
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	b.WriteString("endmodule\n")
}

// File is a collection of modules emitted into one source file.
type File struct {
	Header  string // optional banner comment
	Modules []*Module
}

// Add appends a module to the file and returns it for chaining.
func (f *File) Add(m *Module) *Module {
	f.Modules = append(f.Modules, m)
	return m
}

// Emit renders the whole file.
func (f *File) Emit() string {
	var b strings.Builder
	if f.Header != "" {
		for _, line := range strings.Split(strings.TrimRight(f.Header, "\n"), "\n") {
			fmt.Fprintf(&b, "// %s\n", line)
		}
		b.WriteString("\n")
	}
	for i, m := range f.Modules {
		if i > 0 {
			b.WriteString("\n")
		}
		m.emit(&b)
	}
	return b.String()
}

// CountLines returns the number of non-blank source lines in text — the
// "lines of Verilog" metric reported in the paper's synthesis tables.
// It walks the text once, without building a slice of its lines.
func CountLines(text string) int {
	n := 0
	for text != "" {
		line := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// BitsFor returns the width of a bus that indexes v distinct values: the
// smallest b ≥ 1 with 2^b ≥ v.
func BitsFor(v int) int {
	b := 1
	for (1 << b) < v {
		b++
	}
	return b
}

// ModuleNames returns the sorted names of all modules in the file.
func (f *File) ModuleNames() []string {
	names := make([]string, 0, len(f.Modules))
	for _, m := range f.Modules {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// ValidateIdent reports whether s is a legal simple Verilog identifier.
func ValidateIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		case r == '$':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return !reserved[s]
}

var reserved = map[string]bool{
	"module": true, "endmodule": true, "input": true, "output": true,
	"inout": true, "wire": true, "reg": true, "assign": true, "always": true,
	"begin": true, "end": true, "if": true, "else": true, "case": true,
	"endcase": true, "for": true, "while": true, "posedge": true,
	"negedge": true, "parameter": true, "initial": true, "function": true,
	"endfunction": true, "task": true, "endtask": true, "integer": true,
}

// Check validates the file for duplicate module names, duplicate ports/nets
// within each module, references to undefined instance modules (unless the
// name is in extern), and illegal identifiers. It returns a list of problems,
// empty when the file is well-formed.
func (f *File) Check(extern map[string]bool) []string {
	var problems []string
	defined := map[string]bool{}
	for _, m := range f.Modules {
		if !ValidateIdent(m.Name) {
			problems = append(problems, fmt.Sprintf("illegal module name %q", m.Name))
		}
		if defined[m.Name] {
			problems = append(problems, fmt.Sprintf("duplicate module %q", m.Name))
		}
		defined[m.Name] = true
		seen := map[string]bool{}
		for _, p := range m.Ports {
			if !ValidateIdent(p.Name) {
				problems = append(problems, fmt.Sprintf("%s: illegal port name %q", m.Name, p.Name))
			}
			if seen[p.Name] {
				problems = append(problems, fmt.Sprintf("%s: duplicate port %q", m.Name, p.Name))
			}
			seen[p.Name] = true
		}
		for _, n := range m.Nets {
			if !ValidateIdent(n.Name) {
				problems = append(problems, fmt.Sprintf("%s: illegal net name %q", m.Name, n.Name))
			}
			if seen[n.Name] {
				problems = append(problems, fmt.Sprintf("%s: duplicate net %q", m.Name, n.Name))
			}
			seen[n.Name] = true
		}
	}
	for _, m := range f.Modules {
		for _, inst := range m.Instances {
			if !defined[inst.Module] && (extern == nil || !extern[inst.Module]) {
				problems = append(problems,
					fmt.Sprintf("%s: instance %q of undefined module %q", m.Name, inst.Name, inst.Module))
			}
		}
	}
	return problems
}
