// Partitioning: the δ framework's central design decision, where the
// deadlock algorithm runs, shown on one resource-usage tape.  The tape runs
// under all four deadlock configurations of Table 3 (detection/avoidance ×
// software/hardware).  Detection rows track a rag.Graph and check it after
// every request, with PDDA in software (RTOS1) or a DDU (RTOS2); they let
// the deadlock happen and report it.  Avoidance rows drive app's DAA
// (RTOS3) and DAU (RTOS4) backends, which refuse the deadlock-inducing
// grant; the process asked to give up releases everything it holds.  The
// per-event algorithm cost shows the hardware win.  Recovering from a
// detected deadlock (victim selection, kill, reclaim) is fault.Recovery's
// job inside a running kernel; `deltasim -chaos` exercises it.
//
// Run with: go run ./examples/partitioning
package main

import (
	"fmt"
	"log"

	"deltartos/internal/app"
	"deltartos/internal/daa"
	"deltartos/internal/ddu"
	"deltartos/internal/pdda"
	"deltartos/internal/rag"
	"deltartos/internal/sim"
)

const procs, resources = 2, 2

// The tape: p1 takes q1, p2 takes q2, p2 wants q1 (queued), p1 wants q2 —
// the classic hold-and-wait square.
var tape = []struct{ p, q int }{{0, 0}, {1, 1}, {1, 0}, {0, 1}}

// row is the outcome of the tape under one partitioning.
type row struct {
	Deadlocked bool       // the algorithm saw a deadlocked graph after some event
	Avoided    bool       // the avoider refused a grant or asked an owner to release
	Cycles     sim.Cycles // total deadlock-algorithm cost
}

// strategy is one deadlock row of Table 3.
type strategy struct {
	name   string
	avoids bool
	run    func() (row, error)
}

func strategies() []strategy {
	return []strategy{
		{"RTOS1 (PDDA in software)", false, func() (row, error) {
			return detectTape(func(g *rag.Graph) (bool, sim.Cycles, error) {
				dead, st := pdda.DetectGraph(g)
				return dead, sim.SoftwareDetectCycles(st), nil
			})
		}},
		{"RTOS2 (DDU)", false, func() (row, error) {
			u, err := ddu.New(ddu.Config{Procs: procs, Resources: resources})
			if err != nil {
				return row{}, err
			}
			return detectTape(func(g *rag.Graph) (bool, sim.Cycles, error) {
				res, err := u.DetectGraph(g)
				if err != nil {
					return false, 0, err
				}
				return res.Deadlock, sim.DDUInvokeCycles(res.Steps), nil
			})
		}},
		{"RTOS3 (DAA in software)", true, func() (row, error) {
			b, err := app.NewSoftwareAvoidance(procs, resources)
			if err != nil {
				return row{}, err
			}
			return avoidTape(b), nil
		}},
		{"RTOS4 (DAU)", true, func() (row, error) {
			b, err := app.NewHardwareAvoidance(procs, resources)
			if err != nil {
				return row{}, err
			}
			return avoidTape(b), nil
		}},
	}
}

// detectTape plays the tape on a graph that grants free resources and
// queues busy ones, running detect after every request.
func detectTape(detect func(*rag.Graph) (bool, sim.Cycles, error)) (row, error) {
	g := rag.NewGraph(resources, procs)
	var r row
	for _, op := range tape {
		if g.Holder(op.q) == -1 {
			if err := g.SetGrant(op.q, op.p); err != nil {
				return r, err
			}
		} else {
			g.AddRequest(op.q, op.p)
		}
		dead, cost, err := detect(g)
		if err != nil {
			return r, err
		}
		r.Deadlocked = r.Deadlocked || dead
		r.Cycles += cost
	}
	return r, nil
}

// avoidTape plays the tape through an avoidance backend, complying with
// every give-up it demands as the RTOS mechanism of Assumption 3 would.
func avoidTape(b app.AvoidanceBackend) row {
	b.SetPriority(0, 1)
	b.SetPriority(1, 2)
	var r row
	for _, op := range tape {
		res, _ := b.RequestOp(op.p, op.q)
		//deltalint:partial Granted and Pending need no reaction from the driver
		switch res.Decision {
		case daa.GiveUpRequested:
			r.Avoided = true
			giveUp(b, op.p)
		case daa.PendingOwnerAsked:
			r.Avoided = true
			giveUp(b, res.AskedProcess)
		}
		r.Deadlocked = r.Deadlocked || b.Deadlocked()
	}
	r.Cycles = b.TotalCost()
	return r
}

// giveUp releases every resource p holds.
func giveUp(b app.AvoidanceBackend, p int) {
	for _, q := range b.Held(p) {
		b.ReleaseOp(p, q)
	}
}

func main() {
	fmt.Printf("%-28s %-10s %-10s %-12s %s\n",
		"strategy", "deadlock?", "avoided?", "alg cycles", "notes")
	for _, s := range strategies() {
		r, err := s.run()
		if err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		note := "deadlock reported; recovery is fault.Recovery's job (deltasim -chaos)"
		if s.avoids {
			note = "give-up protocol resolved the conflict before commit"
		}
		fmt.Printf("%-28s %-10v %-10v %-12d %s\n", s.name, r.Deadlocked, r.Avoided, r.Cycles, note)
	}
}
