// Avoidance: drive the DAU command interface through the paper's two
// scenarios — grant deadlock (Application Example I, Table 6) and request
// deadlock (Application Example II, Table 8) — and watch the unit steer the
// system around both, then run the full MPSoC versions and print the
// Table 7 / Table 9 measurements.
//
// Run with: go run ./examples/avoidance
package main

import (
	"fmt"
	"log"

	"deltartos/internal/app"
	"deltartos/internal/daa"
	"deltartos/internal/dau"
)

func main() {
	fmt.Println("--- grant deadlock (Table 6), raw DAU commands ---")
	grantDeadlock()
	fmt.Println()
	fmt.Println("--- request deadlock (Table 8), raw DAU commands ---")
	requestDeadlock()
	fmt.Println()
	fmt.Println("--- full MPSoC simulations ---")
	fullSimulations()
}

func grantDeadlock() {
	u, err := dau.New(dau.Config{Procs: 5, Resources: 5})
	if err != nil {
		log.Fatal(err)
	}
	for p := 0; p < 5; p++ {
		u.SetPriority(p, daa.Priority(p+1)) // p1 highest
	}
	const q1, q2, q4 = 0, 1, 3
	step := func(what string, st dau.Status, steps int, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s -> %s (%d steps)\n", what, describe(st), steps)
	}
	st, n, err := u.Request(0, q1)
	step("t1: p1 requests q1", st, n, err)
	st, n, err = u.Request(0, q2)
	step("t1: p1 requests q2", st, n, err)
	st, n, err = u.Request(2, q2)
	step("t2: p3 requests q2", st, n, err)
	st, n, err = u.Request(2, q4)
	step("t2: p3 requests q4", st, n, err)
	st, n, err = u.Request(1, q2)
	step("t3: p2 requests q2", st, n, err)
	st, n, err = u.Request(1, q4)
	step("t3: p2 requests q4", st, n, err)
	st, n, err = u.Release(0, q1)
	step("t4: p1 releases q1", st, n, err)
	st, n, err = u.Release(0, q2)
	step("t5: p1 releases q2 (G-dl check!)", st, n, err)
	if !st.GDl || st.GrantedTo != 2 {
		log.Fatalf("expected G-dl avoidance granting q2 to p3, got %+v", st)
	}
	fmt.Println("   => DAU avoided the grant deadlock by granting q2 to lower-priority p3")
}

func requestDeadlock() {
	u, err := dau.New(dau.Config{Procs: 5, Resources: 5})
	if err != nil {
		log.Fatal(err)
	}
	for p := 0; p < 5; p++ {
		u.SetPriority(p, daa.Priority(p+1))
	}
	const q1, q2, q3 = 0, 1, 2
	run := func(what string, st dau.Status, steps int, err error) dau.Status {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s -> %s (%d steps)\n", what, describe(st), steps)
		return st
	}
	st, n, err := u.Request(0, q1)
	run("t1: p1 requests q1", st, n, err)
	st, n, err = u.Request(1, q2)
	run("t2: p2 requests q2", st, n, err)
	st, n, err = u.Request(2, q3)
	run("t3: p3 requests q3", st, n, err)
	st, n, err = u.Request(1, q3)
	run("t4: p2 requests q3 (pends)", st, n, err)
	st, n, err = u.Request(2, q1)
	run("t5: p3 requests q1 (pends)", st, n, err)
	st, n, err = u.Request(0, q2)
	st = run("t6: p1 requests q2 (R-dl check!)", st, n, err)
	if !st.RDl || st.WhichProcess != 1 {
		log.Fatalf("expected R-dl with p2 asked to release, got %+v", st)
	}
	fmt.Println("   => DAU detected the R-dl and asked p2 (lower priority) to give up q2")
	st, n, err = u.Release(1, q2)
	run("t7: p2 complies, releases q2", st, n, err)
	if u.Avoider().Deadlocked() {
		log.Fatal("system deadlocked after compliance")
	}
	fmt.Println("   => q2 flowed to p1; no deadlock")
}

func fullSimulations() {
	unit, err := app.NewHardwareAvoidance(5, 5)
	if err != nil {
		log.Fatal(err)
	}
	g := app.RunGrantDeadlockScenario(unit)
	fmt.Printf("G-dl app with DAU:  %d cycles, %d invocations, avg %.2f cycles/invocation\n",
		g.AppCycles, g.Invocations, g.AvgAlgCycles)
	soft, err := app.NewSoftwareAvoidance(5, 5)
	if err != nil {
		log.Fatal(err)
	}
	r := app.RunRequestDeadlockScenario(soft)
	fmt.Printf("R-dl app with DAA:  %d cycles, %d invocations, avg %.0f cycles/invocation\n",
		r.AppCycles, r.Invocations, r.AvgAlgCycles)
}

func describe(st dau.Status) string {
	switch {
	case st.GiveUp:
		return fmt.Sprintf("GIVE-UP demanded of p%d", st.WhichProcess+1)
	case st.RDl:
		return fmt.Sprintf("R-dl! pending; p%d asked to release", st.WhichProcess+1)
	case st.GDl && st.GrantedTo >= 0:
		return fmt.Sprintf("G-dl avoided; granted to p%d", st.GrantedTo+1)
	case st.GrantedTo >= 0:
		return fmt.Sprintf("released; granted to p%d", st.GrantedTo+1)
	case st.Pending:
		return "pending"
	case st.Successful:
		return "granted"
	}
	return "done"
}
