// Command deltagen is the δ framework generator front end (the command-line
// equivalent of the GUI of Figure 3): it takes a configuration — either one
// of the Table 3 presets or a JSON file — and generates the Verilog top
// file, the selected hardware RTOS component files and the Atalanta software
// configuration header into an output directory.
//
// Usage:
//
//	deltagen -preset RTOS6 -out out/
//	deltagen -config myconfig.json -out out/
//	deltagen -preset RTOS4 -print
//	deltagen -scenario-seed 42 -scenario-resources 8
//
// -scenario-seed switches to the fuzz front end: instead of Verilog it
// emits one generated lock-acquisition scenario as a self-contained Go
// package (the exact source the fuzz sweep round-trips through deltalint),
// for reproducing a seed a sweep flagged.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"deltartos/internal/delta"
	"deltartos/internal/fuzz"
)

func main() {
	preset := flag.String("preset", "", "Table 3 preset name (RTOS1..RTOS7)")
	config := flag.String("config", "", "JSON configuration file")
	out := flag.String("out", "", "output directory for generated files")
	print := flag.Bool("print", false, "print the top file to stdout instead of writing files")
	scenSeed := flag.Uint64("scenario-seed", 0, "emit the fuzz scenario for this seed as Go source to stdout (0 = off)")
	scenTasks := flag.Int("scenario-tasks", 0, "with -scenario-seed: override the task count")
	scenRes := flag.Int("scenario-resources", 0, "with -scenario-seed: override the resource count")
	flag.Parse()

	if *scenSeed != 0 {
		if err := emitScenario(*scenSeed, *scenTasks, *scenRes); err != nil {
			fmt.Fprintln(os.Stderr, "deltagen:", err)
			os.Exit(1)
		}
		return
	}

	cfg, err := loadConfig(*preset, *config)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deltagen:", err)
		os.Exit(2)
	}
	gen, err := delta.Generate(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deltagen:", err)
		os.Exit(1)
	}
	if *print || *out == "" {
		fmt.Print(gen.Top.Emit())
		return
	}
	if err := writeFiles(os.Stdout, cfg, gen, *out); err != nil {
		fmt.Fprintln(os.Stderr, "deltagen:", err)
		os.Exit(1)
	}
}

// emitScenario regenerates one fuzz scenario and prints it: the compact
// program listing as a comment block on stderr-free stdout would garble the
// Go source, so the listing rides along as comments, followed by the same
// EmitGo source the sweep's deltalint round-trip analyzes.
func emitScenario(seed uint64, tasks, resources int) error {
	cfg := fuzz.DefaultGenConfig()
	if tasks > 0 {
		cfg.Tasks = tasks
	}
	if resources > 0 {
		cfg.Resources = resources
	}
	sc, err := fuzz.Generate(seed, cfg)
	if err != nil {
		return err
	}
	st := fuzz.Derive(sc)
	fmt.Printf("// static lock-order cycle: %v, edges: %d\n//\n", st.HasCycle(), st.Edges())
	fmt.Print(fuzz.EmitGo(sc, st))
	return nil
}

func loadConfig(preset, config string) (*delta.Config, error) {
	switch {
	case preset != "" && config != "":
		return nil, fmt.Errorf("use -preset or -config, not both")
	case preset != "":
		c, err := delta.Preset(preset)
		if err != nil {
			return nil, err
		}
		return &c, nil
	case config != "":
		data, err := os.ReadFile(config)
		if err != nil {
			return nil, err
		}
		return delta.Load(data)
	}
	return nil, fmt.Errorf("need -preset or -config")
}

// writeFiles writes the generated system into dir — Top.v, one file per
// hardware component in the configuration's order, the Atalanta header and
// the configuration itself — and reports each path on w.
func writeFiles(w io.Writer, cfg *delta.Config, gen *delta.GeneratedSystem, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, content string) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", path)
		return nil
	}
	if err := write("Top.v", gen.Top.Emit()); err != nil {
		return err
	}
	for _, comp := range cfg.Components {
		f := gen.Components[comp]
		if f == nil {
			continue // a software component: no Verilog
		}
		if err := write(string(comp)+".v", f.Emit()); err != nil {
			return err
		}
	}
	if err := write("atalanta_cfg.h", gen.RTOSHeader); err != nil {
		return err
	}
	data, err := cfg.Save()
	if err != nil {
		return err
	}
	return write("config.json", string(data)+"\n")
}
