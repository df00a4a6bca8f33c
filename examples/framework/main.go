// Framework: δ framework design-space exploration — generate all seven
// Table 3 configurations, print each system's hardware component synthesis
// summary, and write one full configuration (Top.v + component Verilog +
// Atalanta header) to ./out-rtos6 as the GUI's "Generate" button would.
//
// Run with: go run ./examples/framework
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"deltartos/internal/dau"
	"deltartos/internal/ddu"
	"deltartos/internal/delta"
	"deltartos/internal/socdmmu"
	"deltartos/internal/soclc"
	"deltartos/internal/verilog"
)

func main() {
	fmt.Println("delta framework design-space exploration (Table 3 presets)")
	fmt.Println()
	fmt.Printf("%-7s %-58s %10s %8s\n", "system", "description", "hw gates", "hw lines")
	for _, name := range delta.PresetNames() {
		cfg, err := delta.Preset(name)
		if err != nil {
			log.Fatal(err)
		}
		gates, lines := hardwareFootprint(&cfg)
		fmt.Printf("%-7s %-58s %10d %8d\n", name, delta.Describe(&cfg), gates, lines)
	}

	fmt.Println()
	fmt.Println("generating the RTOS6 system (SoCLC + IPCP) into ./out-rtos6 ...")
	cfg, err := delta.Preset("RTOS6")
	if err != nil {
		log.Fatal(err)
	}
	gen, err := delta.Generate(&cfg)
	if err != nil {
		log.Fatal(err)
	}
	dir := "out-rtos6"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	write := func(name, content string) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote %-28s (%d lines)\n", path, verilog.CountLines(content))
	}
	write("Top.v", gen.Top.Emit())
	for _, comp := range cfg.Components {
		if f := gen.Components[comp]; f != nil {
			write(string(comp)+".v", f.Emit())
		}
	}
	write("atalanta_cfg.h", gen.RTOSHeader)
}

// hardwareFootprint sums the synthesized area/lines of a preset's hardware
// RTOS components (software-only presets report zero).
func hardwareFootprint(cfg *delta.Config) (gates, lines int) {
	for _, comp := range cfg.Components {
		switch comp {
		case delta.CompDDU:
			sr, err := ddu.Synthesize(ddu.Config{Procs: cfg.Tasks, Resources: cfg.Resources})
			if err != nil {
				log.Fatal(err)
			}
			gates += sr.AreaGates
			lines += sr.VerilogLines
		case delta.CompDAU:
			sr, err := dau.Synthesize(dau.Config{Procs: cfg.Tasks, Resources: cfg.Resources})
			if err != nil {
				log.Fatal(err)
			}
			gates += sr.TotalArea
			lines += sr.TotalLines
		case delta.CompSoCLC:
			sr, err := soclc.Synthesize(cfg.SoCLC)
			if err != nil {
				log.Fatal(err)
			}
			gates += sr.AreaGates
			lines += sr.VerilogLines
		case delta.CompSoCDMMU:
			sr, err := socdmmu.Synthesize(cfg.SoCDMMU)
			if err != nil {
				log.Fatal(err)
			}
			gates += sr.AreaGates
			lines += sr.VerilogLines
		}
	}
	return gates, lines
}
