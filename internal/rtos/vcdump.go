package rtos

import (
	"io"
	"sort"
	"strings"

	"deltartos/internal/trace"
	"deltartos/internal/vcd"
)

// WriteScheduleVCD converts a scheduling trace (the KindSched events
// Kernel.TraceFn or a recorder collected) into a waveform: one "running"
// wire per task plus a current-task vector per PE, time in bus cycles.
// Figure 20's execution trace becomes directly viewable in GTKWave.
func WriteScheduleVCD(w io.Writer, sched []trace.Event, numPE int) error {
	// Collect the task names in first-appearance order.
	var names []string
	seen := map[string]int{}
	for _, ev := range sched {
		if _, ok := seen[ev.Proc]; !ok {
			seen[ev.Proc] = len(names)
			names = append(names, ev.Proc)
		}
	}
	sort.Strings(names)
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}

	vw := vcd.NewWriter(w, "10ns")
	vw.Scope("schedule")
	running := make([]vcd.VarID, len(names))
	for i, n := range names {
		running[i] = vw.Wire("run_"+n, 1)
	}
	peVars := make([]vcd.VarID, numPE)
	for pe := 0; pe < numPE; pe++ {
		peVars[pe] = vw.Wire(rowName("pe", pe+1)+"_task", 8)
	}
	vw.Begin()

	// Replay: track the running task per PE.
	curOnPE := make([]int, numPE)
	for pe := range curOnPE {
		curOnPE[pe] = -1
	}
	vw.Time(0)
	for _, v := range running {
		vw.SetBit(v, false)
	}
	for _, v := range peVars {
		vw.SetVec(v, 0)
	}
	for _, ev := range sched {
		if ev.PE < 0 || ev.PE >= numPE {
			continue
		}
		vw.Time(ev.Cycle)
		ti := idx[ev.Proc]
		switch strings.TrimPrefix(ev.Name, "sched.") {
		case "dispatch":
			if prev := curOnPE[ev.PE]; prev >= 0 {
				vw.SetBit(running[prev], false)
			}
			curOnPE[ev.PE] = ti
			vw.SetBit(running[ti], true)
			vw.SetVec(peVars[ev.PE], uint64(ti+1))
		default: // preempt, exit, sleep, block:<what> and friends
			if curOnPE[ev.PE] == ti {
				curOnPE[ev.PE] = -1
				vw.SetBit(running[ti], false)
				vw.SetVec(peVars[ev.PE], 0)
			}
		}
	}
	return vw.Err()
}

func rowName(prefix string, n int) string {
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	if digits == "" {
		digits = "0"
	}
	return prefix + digits
}
