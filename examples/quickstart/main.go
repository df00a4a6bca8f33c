// Quickstart: build a RAG, detect deadlock three ways (cycle oracle,
// software PDDA, hardware DDU), then generate the DDU's Verilog.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"deltartos/internal/ddu"
	"deltartos/internal/pdda"
	"deltartos/internal/rag"
)

func main() {
	// A 4-process, 4-resource system heading into the classic hold-and-wait
	// cycle: p1 holds q1 and wants q2; p2 holds q2 and wants q1.
	g := rag.NewGraph(4, 4)
	must(g.SetGrant(0, 0)) // q1 -> p1
	must(g.SetGrant(1, 1)) // q2 -> p2
	g.AddRequest(1, 0)     // p1 requests q2
	g.AddRequest(0, 1)     // p2 requests q1

	fmt.Println("state matrix (paper Figure 11 notation):")
	fmt.Println(g.Matrix())

	// 1. Reference oracle: DFS cycle detection.
	fmt.Println("cycle oracle:        deadlock =", g.HasCycle())

	// 2. Software PDDA (Algorithms 1 and 2): terminal reduction.
	dead, stats := pdda.DetectGraph(g)
	fmt.Printf("PDDA (software):     deadlock = %v  (%d reduction iterations, %d cell reads)\n",
		dead, stats.Iterations, stats.CellReads)

	// 3. Hardware DDU: the same reduction, counted in hardware clock steps.
	unit, err := ddu.New(ddu.Config{Procs: 4, Resources: 4})
	if err != nil {
		log.Fatal(err)
	}
	res, err := unit.DetectGraph(g)
	must(err)
	fmt.Printf("DDU (hardware):      deadlock = %v  (%d hardware steps)\n", res.Deadlock, res.Steps)

	// Which processes are doomed?
	fmt.Print("deadlocked processes:")
	for _, p := range g.DeadlockedProcesses() {
		fmt.Printf(" p%d", p+1)
	}
	fmt.Println()

	// Generate the unit the δ framework would emit for this system.
	sr, err := ddu.Synthesize(ddu.Config{Procs: 4, Resources: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated DDU: %d lines of Verilog, %d NAND2-equivalent gates, worst case %d steps\n",
		sr.VerilogLines, sr.AreaGates, sr.WorstSteps)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
