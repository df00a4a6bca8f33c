package sim

import (
	"testing"

	"deltartos/internal/pdda"
)

func TestEmptyRun(t *testing.T) {
	s := New()
	if end := s.Run(); end != 0 {
		t.Errorf("empty run ended at %d", end)
	}
	if !s.AllDone() {
		t.Error("empty sim should be all-done")
	}
}

func TestSingleProcDelay(t *testing.T) {
	s := New()
	var observed Cycles
	s.Spawn("a", 0, func(p *Proc) {
		p.Delay(10)
		p.Delay(5)
		observed = p.Now()
	})
	end := s.Run()
	if end != 15 || observed != 15 {
		t.Errorf("end=%d observed=%d, want 15", end, observed)
	}
	if !s.AllDone() {
		t.Error("proc not done")
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New()
		var order []string
		s.Spawn("a", 0, func(p *Proc) {
			p.Delay(5)
			order = append(order, "a5")
			p.Delay(10)
			order = append(order, "a15")
		})
		s.Spawn("b", 1, func(p *Proc) {
			p.Delay(5)
			order = append(order, "b5")
			p.Delay(3)
			order = append(order, "b8")
		})
		s.Run()
		return order
	}
	first := run()
	want := []string{"a5", "b5", "b8", "a15"}
	if len(first) != len(want) {
		t.Fatalf("order = %v", first)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
	// Determinism: 50 repeats give the identical order.
	for i := 0; i < 50; i++ {
		got := run()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("repeat %d: order = %v", i, got)
			}
		}
	}
}

func TestSignalWaitWake(t *testing.T) {
	s := New()
	sig := s.NewSignal("cond")
	var wokenAt Cycles
	s.Spawn("waiter", 0, func(p *Proc) {
		sig.Wait(p)
		wokenAt = p.Now()
	})
	s.Spawn("waker", 1, func(p *Proc) {
		p.Delay(42)
		if n := sig.Waiters(); n != 1 {
			t.Errorf("Waiters = %d", n)
		}
		sig.WakeAll()
	})
	s.Run()
	if wokenAt != 42 {
		t.Errorf("woken at %d, want 42", wokenAt)
	}
	if !s.AllDone() {
		t.Error("procs not done")
	}
}

func TestSignalWakeAllFIFO(t *testing.T) {
	s := New()
	sig := s.NewSignal("cond")
	var order []string
	for i, name := range []string{"w0", "w1", "w2"} {
		name := name
		delay := Cycles(i)
		s.Spawn(name, i, func(p *Proc) {
			p.Delay(delay) // stagger arrival
			sig.Wait(p)
			order = append(order, name)
		})
	}
	s.Spawn("waker", 3, func(p *Proc) {
		p.Delay(10)
		if n := sig.WakeAll(); n != 3 {
			t.Errorf("WakeAll woke %d", n)
		}
	})
	s.Run()
	if len(order) != 3 || order[0] != "w0" || order[1] != "w1" || order[2] != "w2" {
		t.Errorf("wake order = %v", order)
	}
}

func TestSignalRemove(t *testing.T) {
	s := New()
	sig := s.NewSignal("cond")
	other := s.NewSignal("other")
	var aRan bool
	var pa *Proc
	s.Spawn("a", 0, func(p *Proc) {
		pa = p
		sig.Wait(p)
		aRan = true
	})
	s.Spawn("b", 1, func(p *Proc) {
		p.Delay(5)
		if !sig.Remove(pa) {
			t.Error("Remove failed")
		}
		if sig.Remove(pa) {
			t.Error("double Remove succeeded")
		}
		// a is now unreachable through sig; park it on other and wake it so
		// the sim can drain.
		other.waiters = append(other.waiters, pa)
		other.WakeAll()
	})
	s.Run()
	if !aRan {
		t.Error("a never resumed")
	}
}

func TestBlockedReporting(t *testing.T) {
	s := New()
	sig := s.NewSignal("never")
	s.Spawn("stuck-b", 0, func(p *Proc) { sig.Wait(p) })
	s.Spawn("stuck-a", 1, func(p *Proc) { sig.Wait(p) })
	s.Spawn("fine", 2, func(p *Proc) { p.Delay(3) })
	s.Run()
	blocked := s.Blocked()
	if len(blocked) != 2 || blocked[0] != "stuck-a" || blocked[1] != "stuck-b" {
		t.Errorf("Blocked = %v", blocked)
	}
	if s.AllDone() {
		t.Error("AllDone with blocked procs")
	}
}

func TestTransactionCycles(t *testing.T) {
	cases := []struct {
		words int
		want  Cycles
	}{{0, 0}, {1, 3}, {2, 4}, {8, 10}}
	for _, c := range cases {
		if got := TransactionCycles(c.words); got != c.want {
			t.Errorf("TransactionCycles(%d) = %d, want %d", c.words, got, c.want)
		}
	}
}

func TestBusSerializesTransactions(t *testing.T) {
	s := New()
	var aEnd, bEnd Cycles
	s.Spawn("a", 0, func(p *Proc) {
		s.Bus.Read(p, 8) // 10 cycles
		aEnd = p.Now()
	})
	s.Spawn("b", 1, func(p *Proc) {
		s.Bus.Read(p, 8) // must queue behind a
		bEnd = p.Now()
	})
	s.Run()
	if aEnd != 10 {
		t.Errorf("a finished at %d, want 10", aEnd)
	}
	if bEnd != 20 {
		t.Errorf("b finished at %d, want 20 (serialized)", bEnd)
	}
	if s.Bus.StallCycles != 10 {
		t.Errorf("StallCycles = %d, want 10", s.Bus.StallCycles)
	}
	if s.Bus.Transactions != 2 || s.Bus.WordsMoved != 16 {
		t.Errorf("bus counters: %d transactions, %d words", s.Bus.Transactions, s.Bus.WordsMoved)
	}
}

func TestBusIdleGap(t *testing.T) {
	s := New()
	s.Spawn("a", 0, func(p *Proc) {
		s.Bus.Read(p, 1)
		p.Delay(100)
		s.Bus.Read(p, 1) // bus long since free: no stall
	})
	s.Run()
	if s.Bus.StallCycles != 0 {
		t.Errorf("StallCycles = %d, want 0", s.Bus.StallCycles)
	}
}

func TestBusUtilization(t *testing.T) {
	s := New()
	s.Spawn("a", 0, func(p *Proc) {
		s.Bus.Read(p, 8)
		p.Delay(10)
	})
	s.Run()
	u := s.Bus.Utilization()
	if u <= 0 || u > 1 {
		t.Errorf("Utilization = %v", u)
	}
}

func TestDeviceProcess(t *testing.T) {
	s := New()
	dev := s.NewDevice("IDCT")
	var end Cycles
	s.Spawn("task", 0, func(p *Proc) {
		dev.Process(p, 1000)
		end = p.Now()
	})
	s.Run()
	// 3 (cmd write) + 1000 (processing) + 3 (status read) = 1006.
	if end != 1006 {
		t.Errorf("device job ended at %d, want 1006", end)
	}
	if dev.Jobs != 1 {
		t.Errorf("device jobs = %d, want 1", dev.Jobs)
	}
}

func TestDeviceQueuesJobs(t *testing.T) {
	s := New()
	dev := s.NewDevice("DSP")
	var ends []Cycles
	for i := 0; i < 2; i++ {
		s.Spawn("t", i, func(p *Proc) {
			dev.Process(p, 500)
			ends = append(ends, p.Now())
		})
	}
	s.Run()
	if len(ends) != 2 {
		t.Fatalf("ends = %v", ends)
	}
	if ends[1] < ends[0]+400 {
		t.Errorf("second job did not queue: %v", ends)
	}
}

func TestStandardDevices(t *testing.T) {
	s := New()
	devs := StandardDevices(s)
	if len(devs) != 4 {
		t.Fatalf("want 4 devices")
	}
	names := []string{"VI", "IDCT", "DSP", "WI"}
	for i, d := range devs {
		if d.Name != names[i] {
			t.Errorf("device %d = %s, want %s", i, d.Name, names[i])
		}
	}
}

func TestSoftwareDetectCyclesCalibration(t *testing.T) {
	// A 5x5 scenario-scale detection must land near the paper's 1830-cycle
	// software PDDA anchor.  Representative stats: ~2 reduction iterations
	// on a 5x5 matrix (the detection-scenario average).
	st := pdda.Stats{Iterations: 2, CellReads: 2*50 + 25, CellWrites: 25 + 20, Ops: 50}
	got := SoftwareDetectCycles(st)
	if got < 1200 || got > 2600 {
		t.Errorf("SoftwareDetectCycles = %d, want within ~40%% of 1830", got)
	}
}

func TestDDUInvokeCycles(t *testing.T) {
	if DDUInvokeCycles(2) != 1 {
		t.Error("small detection should cost 1 cycle")
	}
	if DDUInvokeCycles(6) != 1 {
		t.Error("6-step detection should cost 1 cycle")
	}
	if DDUInvokeCycles(16) != 3 {
		t.Errorf("16-step detection = %d, want 3", DDUInvokeCycles(16))
	}
}

func TestDAUInvokeCycles(t *testing.T) {
	if DAUInvokeCycles(7) != 7 {
		t.Error("DAU steps should map 1:1 to cycles")
	}
}
