// Robot: run the Section 5.5 robot-control + MPEG application on the
// simulated 4-PE MPSoC twice — once with Atalanta's software priority
// inheritance locks (RTOS5), once with the SoCLC lock cache and hardware
// IPCP (RTOS6) — and print the Table 10 comparison plus a Figure 20-style
// execution trace.
//
// Run with: go run ./examples/robot
package main

import (
	"fmt"
	"strings"

	"deltartos/internal/app"
)

func main() {
	sw := app.RunRobotScenario(app.NewRTOS5Locks, false)
	hw := app.RunRobotScenario(app.NewRTOS6Locks, true)

	fmt.Println("robot control application + MPEG decoder, 4 PEs, 6-9 iterations/task")
	fmt.Println()
	fmt.Printf("%-20s %12s %12s %9s\n", "metric", "RTOS5 (sw)", "RTOS6 (hw)", "speedup")
	row := func(name string, a, b float64) {
		fmt.Printf("%-20s %12.0f %12.0f %8.2fX\n", name, a, b, a/b)
	}
	row("lock latency", sw.LockLatency, hw.LockLatency)
	row("lock delay", sw.LockDelay, hw.LockDelay)
	row("overall execution", float64(sw.OverallCycles), float64(hw.OverallCycles))
	fmt.Printf("hard deadlines met:  RTOS5=%v RTOS6=%v\n", sw.DeadlinesMet, hw.DeadlinesMet)

	fmt.Println()
	fmt.Println("execution trace under IPCP (tasks on PE2, first 20 events):")
	shown := 0
	for _, ev := range hw.Trace {
		if !strings.HasPrefix(ev.Proc, "task") || shown >= 20 {
			continue
		}
		fmt.Printf("  t=%-7d PE%d %-6s %s\n", ev.Cycle, ev.PE+1, ev.Proc, strings.TrimPrefix(ev.Name, "sched."))
		shown++
	}
	fmt.Println()
	fmt.Println("with IPCP, task3 acquires the shared-state lock and is immediately")
	fmt.Println("raised to the ceiling, so task2's arrival cannot preempt the critical")
	fmt.Println("section (Figure 20's bounded-blocking behaviour).")
}
