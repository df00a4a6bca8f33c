package dau

import (
	"fmt"

	"deltartos/internal/ddu"
	"deltartos/internal/verilog"
)

// Generate emits the DAU's structural Verilog: the embedded DDU modules plus
// the command/status register file and the DAA FSM of Figure 14.
func Generate(cfg Config) (*verilog.File, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, m := cfg.Procs, cfg.Resources

	f, err := ddu.Generate(ddu.Config{Procs: n, Resources: m})
	if err != nil {
		return nil, err
	}
	f.Header = fmt.Sprintf(
		"DAU %dx%d (processes x resources) generated by the delta framework\nDeadlock Avoidance Unit (Lee & Mooney, DATE 2003): embedded DDU +\ncommand/status registers + DAA FSM (Algorithm 3)", n, m)

	idBits := verilog.BitsFor(n)
	resBits := verilog.BitsFor(m)

	creg := f.Add(&verilog.Module{
		Name:    "dau_cmd_reg",
		Comment: "per-PE command register: opcode, process id, resource id",
	})
	creg.AddPort("clk", verilog.Input, 1)
	creg.AddPort("rst_n", verilog.Input, 1)
	creg.AddPort("wr", verilog.Input, 1)
	creg.AddPort("op_in", verilog.Input, 2)
	creg.AddPort("proc_in", verilog.Input, idBits)
	creg.AddPort("res_in", verilog.Input, resBits)
	creg.AddOutputReg("op", 2)
	creg.AddOutputReg("proc", idBits)
	creg.AddOutputReg("res", resBits)
	creg.AddOutputReg("valid", 1)
	creg.AddAlways("posedge clk or negedge rst_n",
		"if (!rst_n) valid <= 1'b0;",
		"else if (wr) begin",
		"  op <= op_in; proc <= proc_in; res <= res_in; valid <= 1'b1;",
		"end")

	sreg := f.Add(&verilog.Module{
		Name:    "dau_status_reg",
		Comment: "per-PE status register: done/busy/successful/pending/give-up/livelock/G-dl/R-dl + which-process/which-resource",
	})
	sreg.AddPort("clk", verilog.Input, 1)
	sreg.AddPort("rst_n", verilog.Input, 1)
	sreg.AddPort("wr", verilog.Input, 1)
	sreg.AddPort("flags_in", verilog.Input, 8)
	sreg.AddPort("which_proc_in", verilog.Input, idBits)
	sreg.AddPort("which_res_in", verilog.Input, resBits)
	sreg.AddOutputReg("flags", 8)
	sreg.AddOutputReg("which_proc", idBits)
	sreg.AddOutputReg("which_res", resBits)
	sreg.AddAlways("posedge clk or negedge rst_n",
		"if (!rst_n) flags <= 8'd0;",
		"else if (wr) begin",
		"  flags <= flags_in; which_proc <= which_proc_in; which_res <= which_res_in;",
		"end")

	top := f.Add(&verilog.Module{
		Name:    fmt.Sprintf("dau_%dx%d", n, m),
		Comment: "DAU top: DDU + command registers + status registers + DAA FSM",
	})
	top.AddPort("clk", verilog.Input, 1)
	top.AddPort("rst_n", verilog.Input, 1)
	top.AddPort("pe_sel", verilog.Input, idBits)
	top.AddPort("pe_wr", verilog.Input, 1)
	top.AddPort("pe_op", verilog.Input, 2)
	top.AddPort("pe_proc", verilog.Input, idBits)
	top.AddPort("pe_res", verilog.Input, resBits)
	top.AddPort("irq", verilog.Output, n)

	top.AddWire("ddu_deadlock", 1)
	top.AddWire("ddu_busy", 1)
	top.AddReg("ddu_start", 1)
	top.AddReg("fsm_state", 3)
	top.AddReg("scan_idx", idBits)
	top.AddReg("mat_set_r", 1)
	top.AddReg("mat_set_g", 1)
	top.AddReg("mat_clr", 1)
	top.AddReg("mat_row", resBits)
	top.AddReg("mat_col", idBits)

	for pe := 0; pe < n; pe++ {
		top.Raw = append(top.Raw, fmt.Sprintf(
			"dau_cmd_reg cmd_%d (.clk(clk), .rst_n(rst_n), .wr(pe_wr & (pe_sel==%d)), .op_in(pe_op), .proc_in(pe_proc), .res_in(pe_res), .op(cmd_op_%d), .proc(cmd_proc_%d), .res(cmd_res_%d), .valid(cmd_valid_%d));",
			pe, pe, pe, pe, pe, pe))
		top.AddWire(fmt.Sprintf("cmd_op_%d", pe), 2)
		top.AddWire(fmt.Sprintf("cmd_proc_%d", pe), idBits)
		top.AddWire(fmt.Sprintf("cmd_res_%d", pe), resBits)
		top.AddWire(fmt.Sprintf("cmd_valid_%d", pe), 1)
		top.Raw = append(top.Raw, fmt.Sprintf(
			"dau_status_reg status_%d (.clk(clk), .rst_n(rst_n), .wr(status_wr & (status_sel==%d)), .flags_in(status_flags), .which_proc_in(status_proc), .which_res_in(status_res), .flags(st_flags_%d), .which_proc(st_proc_%d), .which_res(st_res_%d));",
			pe, pe, pe, pe, pe))
		top.AddWire(fmt.Sprintf("st_flags_%d", pe), 8)
		top.AddWire(fmt.Sprintf("st_proc_%d", pe), idBits)
		top.AddWire(fmt.Sprintf("st_res_%d", pe), resBits)
	}
	top.AddReg("status_wr", 1)
	top.AddReg("status_sel", idBits)
	top.AddReg("status_flags", 8)
	top.AddReg("status_proc", idBits)
	top.AddReg("status_res", resBits)

	top.AddInstance(verilog.Instance{
		Module: fmt.Sprintf("ddu_%dx%d", n, m),
		Name:   "u_ddu",
		Conns: []verilog.PortConn{
			{Port: "clk", Signal: "clk"},
			{Port: "rst_n", Signal: "rst_n"},
			{Port: "cmd_valid", Signal: "mat_set_r | mat_set_g | mat_clr"},
			{Port: "cmd_set_r", Signal: "mat_set_r"},
			{Port: "cmd_set_g", Signal: "mat_set_g"},
			{Port: "cmd_clr", Signal: "mat_clr"},
			{Port: "cmd_row", Signal: "mat_row"},
			{Port: "cmd_col", Signal: "mat_col"},
			{Port: "start", Signal: "ddu_start"},
			{Port: "busy", Signal: "ddu_busy"},
			{Port: "deadlock", Signal: "ddu_deadlock"},
		},
	})

	// DAA FSM (Algorithm 3): IDLE -> FETCH -> CHECK (tentative edge + DDU)
	// -> DECIDE (priority compare / waiter scan) -> COMMIT/ASK -> STATUS.
	top.AddAlways("posedge clk or negedge rst_n",
		"if (!rst_n) begin fsm_state <= 3'd0; ddu_start <= 1'b0; end",
		"else case (fsm_state)",
		"  3'd0: if (cmd_valid_0) fsm_state <= 3'd1; // FETCH (round-robin scan elided)",
		"  3'd1: begin mat_set_r <= 1'b1; fsm_state <= 3'd2; end // tentative edge",
		"  3'd2: begin ddu_start <= 1'b1; fsm_state <= 3'd3; end // CHECK",
		"  3'd3: if (!ddu_busy) fsm_state <= ddu_deadlock ? 3'd4 : 3'd5; // DECIDE",
		"  3'd4: begin mat_clr <= 1'b1; fsm_state <= 3'd6; end // undo + ask",
		"  3'd5: begin mat_set_g <= 1'b1; fsm_state <= 3'd6; end // COMMIT",
		"  3'd6: begin status_wr <= 1'b1; fsm_state <= 3'd0; end // STATUS",
		"  default: fsm_state <= 3'd0;",
		"endcase")
	top.AddAssign("irq", fmt.Sprintf("{%d{status_wr}}", n))

	return f, nil
}
