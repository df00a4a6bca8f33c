package rtos

import (
	"strings"
	"testing"

	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

func TestWriteScheduleVCD(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	var sched []trace.Event
	k.TraceFn = func(ev trace.Event) { sched = append(sched, ev) }
	k.CreateTask("alpha", 0, 2, 0, func(c *TaskCtx) {
		c.Compute(500)
	})
	k.CreateTask("beta", 0, 1, 100, func(c *TaskCtx) {
		c.Compute(200)
	})
	k.CreateTask("gamma", 1, 1, 0, func(c *TaskCtx) {
		c.Sleep(50)
		c.Compute(100)
	})
	s.Run()
	if len(sched) == 0 {
		t.Fatal("no trace collected")
	}
	var b strings.Builder
	if err := WriteScheduleVCD(&b, sched, 2); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"run_alpha", "run_beta", "run_gamma",
		"pe1_task", "pe2_task",
		"$enddefinitions $end",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("waveform missing %q", want)
		}
	}
	// beta preempts alpha: alpha's running wire must toggle at least twice
	// (on, off at preempt, on again).
	alphaCode := codeFor(text, "run_alpha")
	if alphaCode == "" {
		t.Fatal("alpha var code not found")
	}
	ups := strings.Count(text, "1"+alphaCode+"\n")
	if ups < 2 {
		t.Errorf("alpha dispatched %d times, want >= 2 (preemption round trip)\n%s", ups, text)
	}
}

// codeFor extracts the VCD id code of a named variable from the header.
func codeFor(doc, name string) string {
	for _, line := range strings.Split(doc, "\n") {
		if strings.Contains(line, " "+name+" ") && strings.HasPrefix(line, "$var") {
			fields := strings.Fields(line)
			if len(fields) >= 5 {
				return fields[3]
			}
		}
	}
	return ""
}

func TestWriteScheduleVCDEmptyTrace(t *testing.T) {
	var b strings.Builder
	if err := WriteScheduleVCD(&b, nil, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "$enddefinitions $end") {
		t.Error("empty trace should still produce a valid document")
	}
}
