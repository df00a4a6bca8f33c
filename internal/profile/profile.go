// Package profile backs the -cpuprofile and -memprofile flags of the
// command-line tools with runtime/pprof, so a regression the benchmark
// shows can be profiled from the command that shows it.
package profile

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Paths holds the profile destinations; an empty path disables that
// profile.
type Paths struct {
	CPU string
	Mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Paths {
	p := &Paths{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file when the run ends")
	return p
}

// Start begins the CPU profile and returns the function that ends it and
// writes the heap profile; call it once, before the process exits.
func (p *Paths) Start() (stop func() error, err error) {
	var cpu *os.File
	if p.CPU != "" {
		if cpu, err = os.Create(p.CPU); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if p.Mem == "" {
			return nil
		}
		f, err := os.Create(p.Mem)
		if err != nil {
			return err
		}
		runtime.GC() // fold the last allocations into the heap profile
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
