package ddu

import (
	"fmt"
	"strconv"

	"deltartos/internal/verilog"
)

// Generate emits the structural Verilog description of a DDU sized by cfg,
// following the original generator's layout: a reusable 2-bit matrix cell
// module, per-line weight logic, the decide cell, and a top module that
// instantiates one cell per matrix entry (one source line per cell, which is
// why the paper's lines-of-Verilog column grows with m·n).
func Generate(cfg Config) (*verilog.File, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, n := cfg.Resources, cfg.Procs

	var f verilog.File
	f.Header = fmt.Sprintf(
		"DDU %dx%d (processes x resources) generated by the delta framework\nParallel Deadlock Detection Unit (Lee & Mooney, DATE 2003)",
		n, m)

	cell := f.Add(&verilog.Module{
		Name:    "ddu_cell",
		Comment: "2-bit matrix cell: request/grant SR latches with parallel clear",
	})
	cell.AddPort("clk", verilog.Input, 1)
	cell.AddPort("set_r", verilog.Input, 1)
	cell.AddPort("set_g", verilog.Input, 1)
	cell.AddPort("clr", verilog.Input, 1)
	cell.AddOutputReg("r", 1)
	cell.AddOutputReg("g", 1)
	cell.AddAlways("posedge clk",
		"if (clr) begin r <= 1'b0; g <= 1'b0; end",
		"else begin",
		"  if (set_r) begin r <= 1'b1; g <= 1'b0; end",
		"  if (set_g) begin g <= 1'b1; r <= 1'b0; end",
		"end")

	top := f.Add(&verilog.Module{
		Name:    fmt.Sprintf("ddu_%dx%d", n, m),
		Comment: "DDU top: matrix cells, weight cells, decide cell",
	})
	top.AddPort("clk", verilog.Input, 1)
	top.AddPort("rst_n", verilog.Input, 1)
	top.AddPort("cmd_valid", verilog.Input, 1)
	top.AddPort("cmd_set_r", verilog.Input, 1)
	top.AddPort("cmd_set_g", verilog.Input, 1)
	top.AddPort("cmd_clr", verilog.Input, 1)
	top.AddPort("cmd_row", verilog.Input, verilog.BitsFor(m))
	top.AddPort("cmd_col", verilog.Input, verilog.BitsFor(n))
	top.AddPort("start", verilog.Input, 1)
	top.AddPort("busy", verilog.Output, 1)
	top.AddPort("deadlock", verilog.Output, 1)

	top.AddWire("mat_r", m*n)
	top.AddWire("mat_g", m*n)
	top.AddWire("row_tau", m)
	top.AddWire("row_phi", m)
	top.AddWire("col_tau", n)
	top.AddWire("col_phi", n)
	top.AddWire("t_iter", 1)
	top.AddWire("reducing", 1)

	// One instance line per matrix cell, as the original Archi_gen-style
	// generator wrote them.
	for s := 0; s < m; s++ {
		for t := 0; t < n; t++ {
			row, col, idx := strconv.Itoa(s), strconv.Itoa(t), strconv.Itoa(s*n+t)
			top.Raw = append(top.Raw, "ddu_cell c_"+row+"_"+col+
				" (.clk(clk), .set_r(cmd_valid & cmd_set_r & (cmd_row=="+row+") & (cmd_col=="+col+
				")), .set_g(cmd_valid & cmd_set_g & (cmd_row=="+row+") & (cmd_col=="+col+
				")), .clr((cmd_valid & cmd_clr & (cmd_row=="+row+") & (cmd_col=="+col+
				")) | (reducing & (row_tau["+row+"] | col_tau["+col+"]))), .r(mat_r["+idx+"]), .g(mat_g["+idx+"]));")
		}
	}

	// Row weight cells (Equations 3-4, 6): one assign pair per resource row.
	for s := 0; s < m; s++ {
		top.AddAssign(fmt.Sprintf("row_tau[%d]", s),
			fmt.Sprintf("(|mat_r[%d:%d]) ^ (|mat_g[%d:%d])", s*n+n-1, s*n, s*n+n-1, s*n))
		top.AddAssign(fmt.Sprintf("row_phi[%d]", s),
			fmt.Sprintf("(|mat_r[%d:%d]) & (|mat_g[%d:%d])", s*n+n-1, s*n, s*n+n-1, s*n))
	}
	// Column weight cells: gather strided bits.
	for t := 0; t < n; t++ {
		r, g := colConcat("mat_r", t, m, n), colConcat("mat_g", t, m, n)
		top.AddAssign(fmt.Sprintf("col_tau[%d]", t), fmt.Sprintf("(|(%s)) ^ (|(%s))", r, g))
		top.AddAssign(fmt.Sprintf("col_phi[%d]", t), fmt.Sprintf("(|(%s)) & (|(%s))", r, g))
	}
	// Decide cell (Equations 5 and 7).
	top.AddAssign("t_iter", "(|row_tau) | (|col_tau)")
	top.AddAssign("deadlock", "((|row_phi) | (|col_phi)) & ~t_iter")
	top.AddAssign("reducing", "busy & t_iter")
	top.AddAlways("posedge clk or negedge rst_n",
		"if (!rst_n) busy_q <= 1'b0;",
		"else if (start) busy_q <= 1'b1;",
		"else if (!t_iter) busy_q <= 1'b0;")
	top.AddReg("busy_q", 1)
	top.AddAssign("busy", "busy_q")

	return &f, nil
}

// colConcat builds the Verilog concatenation selecting column t bits out of a
// flattened m*n plane.
func colConcat(plane string, t, m, n int) string {
	b := append(make([]byte, 0, m*(len(plane)+8)), '{')
	for r := m - 1; r >= 0; r-- {
		b = strconv.AppendInt(append(append(b, plane...), '['), int64(r*n+t), 10)
		b = append(b, "],"...)
	}
	b[len(b)-1] = '}'
	return string(b)
}
