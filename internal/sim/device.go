package sim

import "fmt"

// Device models one of the base MPSoC's peripheral resources: the Video
// Interface (VI), the IDCT/MPEG unit, the DSP and the Wireless Interface
// (WI).  Each has a processing timer and an interrupt output (Section 5.1).
//
// A device is also a shared "resource" in the deadlock sense: at most one
// process at a time uses it; arbitration of WHO gets it is the job of the
// RTOS / DDU / DAU above, not of the device itself.
type Device struct {
	sim  *Sim
	Name string
	// IRQ fires when a started job completes.
	IRQ *Signal
	// Busy processing window.
	busyUntil Cycles
	// Jobs counts started jobs; it numbers their completion signals and
	// procs.
	Jobs int
}

// NewDevice attaches a device to the simulation.
func (s *Sim) NewDevice(name string) *Device {
	return &Device{sim: s, Name: name, IRQ: s.NewSignal(name + ".irq")}
}

// Start begins a job of the given duration and returns the job's completion
// signal.  The calling proc pays the programming cost (a bus write to the
// device's command register); the job then runs in device hardware.  When it
// completes, the device wakes the completion signal and raises IRQ.
func (d *Device) Start(p *Proc, duration Cycles) *Signal {
	d.sim.Bus.Write(p, 1) // program the command register
	d.Jobs++
	start := d.sim.now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.busyUntil = start + duration
	end := d.busyUntil
	done := d.sim.NewSignal(fmt.Sprintf("%s.done%d", d.Name, d.Jobs))
	d.sim.Spawn(fmt.Sprintf("%s.job%d", d.Name, d.Jobs), -1, func(tp *Proc) {
		tp.Delay(end - tp.Now())
		done.WakeAll()
		d.IRQ.WakeAll()
	})
	return done
}

// Process runs a job synchronously: the calling proc programs the device,
// blocks until its job completes, and pays the status-read cost.  This is
// the common usage pattern of the experiment applications ("p1 does IDCT
// processing").
func (d *Device) Process(p *Proc, duration Cycles) {
	done := d.Start(p, duration)
	done.Wait(p)
	d.sim.Bus.Read(p, 1) // read status register
}

// StandardDevices returns the paper's four resources in index order
// q1..q4: VI, IDCT (MPEG), DSP, WI.
func StandardDevices(s *Sim) []*Device {
	return []*Device{
		s.NewDevice("VI"),
		s.NewDevice("IDCT"),
		s.NewDevice("DSP"),
		s.NewDevice("WI"),
	}
}

// IDCTFrameCycles is the paper's measurement that IDCT processing of the
// 64x64-pixel test frame takes approximately 23,600 bus cycles (Section 5.3).
const IDCTFrameCycles Cycles = 23600
