package delta

import (
	"fmt"
	"strings"

	"deltartos/internal/verilog"
)

// archiGen is the Verilog top-file generator of Figure 7 (Example 1): it
// reads the description-library entry matching the selected components,
// writes an instantiation line for every module in the list — instantiating
// repeated IP (PEs, memories) with distinct identification numbers — then
// the wires, then the simulation initialization routines.
func archiGen(c *Config) *verilog.File {
	var f verilog.File
	f.Header = fmt.Sprintf(
		"Top.v for configuration %q generated by Archi_gen (delta framework v2.0)\nDescription: %s",
		c.Name, Describe(c))

	// The bus configurator (references [7-9]) emits a real parameterized
	// round-robin arbiter; the widest subsystem sizes the generated module.
	maxMasters := 1
	for _, sub := range c.Subsystems {
		if sub.PEs > maxMasters {
			maxMasters = sub.PEs
		}
	}
	f.Add(busArbiterModule(maxMasters))

	top := f.Add(&verilog.Module{Name: "top", Comment: "generated system top"})
	top.AddWire("clk", 1)
	top.AddWire("rst_n", 1)

	// Description-library module list: essentials first.
	peIdx := 0
	for si, sub := range c.Subsystems {
		busName := fmt.Sprintf("bus%d", si)
		top.AddWire(busName+"_addr", sub.AddrBits)
		top.AddWire(busName+"_data", sub.DataBits)
		top.AddWire(busName+"_req", sub.PEs)
		top.AddWire(busName+"_gnt", sub.PEs)
		for p := 0; p < sub.PEs; p++ {
			top.Raw = append(top.Raw, fmt.Sprintf(
				"%s pe%d (.clk(clk), .rst_n(rst_n), .addr(%s_addr), .data(%s_data), .bus_req(%s_req[%d]), .bus_gnt(%s_gnt[%d]));",
				peModule(sub.PEType), peIdx, busName, busName, busName, p, busName, p))
			peIdx++
		}
		top.Raw = append(top.Raw, fmt.Sprintf(
			"bus_arbiter #(.MASTERS(%d)) arb%d (.clk(clk), .rst_n(rst_n), .req(%s_req), .gnt(%s_gnt));",
			sub.PEs, si, busName, busName))
		for mi, m := range sub.GlobalMems {
			top.Raw = append(top.Raw, fmt.Sprintf(
				"mem_ctrl ctrl%d_%d (.clk(clk), .addr(%s_addr), .data(%s_data));", si, mi, busName, busName))
			top.Raw = append(top.Raw, fmt.Sprintf(
				"%s #(.ADDR(%d), .DATA(%d)) mem%d_%d (.clk(clk), .addr(%s_addr), .data(%s_data));",
				memModule(m.Type), m.AddrBits, m.DataBits, si, mi, busName, busName))
		}
	}
	top.Raw = append(top.Raw,
		"interrupt_ctrl intc (.clk(clk), .rst_n(rst_n));",
		"clock_driver clkdrv (.clk(clk));")

	// Selected hardware RTOS components.
	for _, comp := range c.Components {
		switch comp {
		case CompSoCLC:
			top.Raw = append(top.Raw, fmt.Sprintf(
				"soclc u_soclc (.clk(clk), .rst_n(rst_n), .addr(bus0_addr[5:0]), .wr(1'b0), .pe(2'd0), .irq());  // %d short + %d long locks",
				c.SoCLC.ShortLocks, c.SoCLC.LongLocks))
		case CompSoCDMMU:
			top.Raw = append(top.Raw, fmt.Sprintf(
				"socdmmu u_socdmmu (.clk(clk), .rst_n(rst_n), .cmd(32'd0), .cmd_valid(1'b0), .pe(2'd0), .result(), .done());  // %d blocks",
				c.SoCDMMU.Blocks()))
		case CompDDU:
			top.Raw = append(top.Raw, fmt.Sprintf(
				"ddu_%dx%d u_ddu (.clk(clk), .rst_n(rst_n), .cmd_valid(1'b0), .cmd_set_r(1'b0), .cmd_set_g(1'b0), .cmd_clr(1'b0), .cmd_row(0), .cmd_col(0), .start(1'b0), .busy(), .deadlock());",
				c.Tasks, c.Resources))
		case CompDAU:
			top.Raw = append(top.Raw, fmt.Sprintf(
				"dau_%dx%d u_dau (.clk(clk), .rst_n(rst_n), .pe_sel(0), .pe_wr(1'b0), .pe_op(2'd0), .pe_proc(0), .pe_res(0), .irq());",
				c.Tasks, c.Resources))
		}
	}

	// Simulation initialization routine (the final Archi_gen step).
	top.Raw = append(top.Raw,
		"initial begin",
		"  $display(\"delta framework: configuration "+c.Name+"\");",
		"end")
	return &f
}

// busArbiterModule generates a round-robin bus arbiter for up to `masters`
// request lines: one grant at a time, rotating priority from the last
// grantee (the fair hand-off the SoCLC papers assume of the base system).
func busArbiterModule(masters int) *verilog.Module {
	m := &verilog.Module{
		Name:    "bus_arbiter",
		Comment: "generated round-robin bus arbiter",
		Parameters: []verilog.Param{
			{Name: "MASTERS", Value: fmt.Sprint(masters)},
		},
	}
	m.AddPort("clk", verilog.Input, 1)
	m.AddPort("rst_n", verilog.Input, 1)
	m.AddPort("req", verilog.Input, masters)
	m.AddOutputReg("gnt", masters)
	m.AddReg("last", verilog.BitsFor(masters))
	body := []string{
		"if (!rst_n) begin gnt <= 0; last <= 0; end",
		"else begin",
		"  gnt <= 0;",
	}
	// Rotating priority scan unrolled per master slot.
	for off := 1; off <= masters; off++ {
		body = append(body, fmt.Sprintf(
			"  if (gnt == 0 && req[(last + %d) %% MASTERS]) begin gnt[(last + %d) %% MASTERS] <= 1'b1; last <= (last + %d) %% MASTERS; end",
			off, off, off))
	}
	body = append(body, "end")
	m.AddAlways("posedge clk or negedge rst_n", body...)
	return m
}

func peModule(t PEType) string {
	switch t {
	case PEMPC755:
		return "mpc755"
	case PEMPC750:
		return "mpc750"
	case PEARM920:
		return "arm920"
	case PEARM9TDMI:
		return "arm9tdmi"
	}
	return "pe_generic"
}

func memModule(t MemoryType) string {
	switch t {
	case MemSRAM:
		return "sram"
	case MemSDRAM:
		return "sdram"
	case MemDRAM:
		return "dram"
	}
	return "mem_generic"
}

// ExternModules lists the vendor-supplied simulation models Archi_gen
// instantiates but does not define (processor support packages, memories).
func ExternModules() map[string]bool {
	return map[string]bool{
		"mpc755": true, "mpc750": true, "arm920": true, "arm9tdmi": true,
		"pe_generic": true, "sram": true, "sdram": true, "dram": true,
		"mem_generic": true, "mem_ctrl": true,
		"interrupt_ctrl": true, "clock_driver": true,
		"soclc": true, "socdmmu": true, // emitted into separate files
	}
}

// rtosHeader generates the Atalanta configuration header for the selected
// components: the software half of the configured system (the "configuration
// files for a custom RTOS" of reference [1]).
func rtosHeader(c *Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* atalanta_cfg.h -- generated by the delta framework for %q */\n", c.Name)
	fmt.Fprintf(&b, "#define ATA_NUM_PE        %d\n", c.PEs())
	fmt.Fprintf(&b, "#define ATA_MAX_TASKS     %d\n", maxInt(c.Tasks, 8))
	fmt.Fprintf(&b, "#define ATA_MAX_RESOURCES %d\n", maxInt(c.Resources, 8))
	def := func(name string, on bool) {
		v := 0
		if on {
			v = 1
		}
		fmt.Fprintf(&b, "#define %-24s %d\n", name, v)
	}
	def("ATA_USE_SOCLC", c.Has(CompSoCLC))
	def("ATA_USE_SOCDMMU", c.Has(CompSoCDMMU))
	def("ATA_USE_DDU", c.Has(CompDDU))
	def("ATA_USE_DAU", c.Has(CompDAU))
	def("ATA_SW_PDDA", c.Has(CompPDDASW))
	def("ATA_SW_DAA", c.Has(CompDAASW))
	def("ATA_SW_PRIO_INHERIT", c.Has(CompPISW) || !c.Has(CompSoCLC))
	if c.Has(CompSoCLC) {
		fmt.Fprintf(&b, "#define ATA_SOCLC_SHORT   %d\n", c.SoCLC.ShortLocks)
		fmt.Fprintf(&b, "#define ATA_SOCLC_LONG    %d\n", c.SoCLC.LongLocks)
	}
	if c.Has(CompSoCDMMU) {
		fmt.Fprintf(&b, "#define ATA_DMMU_BLOCKS   %d\n", c.SoCDMMU.Blocks())
		fmt.Fprintf(&b, "#define ATA_DMMU_BLKSIZE  %d\n", c.SoCDMMU.BlockBytes)
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
