package fault

// Tests for the message fault kinds (drop, delay, duplicate, stuck-full
// queue), their deterministic matching, and victim selection across mixed
// lock+IPC wait chains.

import (
	"testing"

	"deltartos/internal/rtos"
	"deltartos/internal/sim"
)

func TestMsgDropLosesMessage(t *testing.T) {
	s := sim.New()
	k := rtos.NewKernel(s, 2)
	q := k.NewQueue("q", 2)
	var sentOK bool
	var got interface{}
	k.CreateTask("tx", 0, 1, 0, func(c *rtos.TaskCtx) {
		sentOK = q.SendTimeout(c, "lost", 1000) // dropped: sender still sees success
	})
	k.CreateTask("rx", 1, 1, 0, func(c *rtos.TaskCtx) {
		got, _ = q.RecvTimeout(c, 5000)
	})
	p := NewPlan(1).Add(Fault{Kind: MsgDrop, Endpoint: "q", At: 0})
	p.Attach(k, nil, nil, nil)
	s.Run()
	if !sentOK {
		t.Error("dropped send should report success to the sender")
	}
	if got != nil {
		t.Errorf("receiver got %v from a dropped send", got)
	}
	occ := p.Fired()
	if len(occ) != 1 || occ[0].Kind != MsgDrop || occ[0].Hit != "q" {
		t.Errorf("Fired = %+v", occ)
	}
}

func TestMsgDelayHoldsMessageInFlight(t *testing.T) {
	s := sim.New()
	k := rtos.NewKernel(s, 2)
	q := k.NewQueue("q", 2)
	var sentAt, recvAt sim.Cycles
	k.CreateTask("tx", 0, 1, 0, func(c *rtos.TaskCtx) {
		q.Send(c, 1)
		sentAt = c.Now()
	})
	k.CreateTask("rx", 1, 1, 0, func(c *rtos.TaskCtx) {
		q.Recv(c)
		recvAt = c.Now()
	})
	NewPlan(1).Add(Fault{Kind: MsgDelay, Endpoint: "q", At: 0, Extra: 7000}).
		Attach(k, nil, nil, nil)
	s.Run()
	if recvAt < sentAt+7000 {
		t.Errorf("recv at %d, sent at %d: delay not applied", recvAt, sentAt)
	}
	if q.Delayed != 1 {
		t.Errorf("Delayed = %d, want 1", q.Delayed)
	}
}

func TestMsgDupDeliversTwice(t *testing.T) {
	s := sim.New()
	k := rtos.NewKernel(s, 2)
	q := k.NewQueue("q", 4)
	var got []interface{}
	k.CreateTask("tx", 0, 1, 0, func(c *rtos.TaskCtx) {
		q.Send(c, "once")
	})
	k.CreateTask("rx", 1, 1, 0, func(c *rtos.TaskCtx) {
		for {
			v, ok := q.RecvTimeout(c, 3000)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	NewPlan(1).Add(Fault{Kind: MsgDup, Endpoint: "q", At: 0}).
		Attach(k, nil, nil, nil)
	s.Run()
	if len(got) != 2 || got[0] != "once" || got[1] != "once" {
		t.Errorf("got %v, want the message twice", got)
	}
}

func TestQueueStuckFullJamsSenders(t *testing.T) {
	s := sim.New()
	k := rtos.NewKernel(s, 2)
	q := k.NewQueue("q", 4)
	var sentAt sim.Cycles
	k.CreateTask("tx", 0, 1, 0, func(c *rtos.TaskCtx) {
		c.Compute(1000) // jam armed at 500 lands before this send
		q.Send(c, 1)
		sentAt = c.Now()
	})
	NewPlan(1).Add(Fault{Kind: QueueStuckFull, Endpoint: "q", At: 500, Extra: 6000}).
		Attach(k, nil, nil, nil)
	s.Run()
	if sentAt < 6500 {
		t.Errorf("send completed at %d, inside the jam window", sentAt)
	}
	if !s.AllDone() {
		t.Errorf("blocked after jam expiry: %v", s.Blocked())
	}
}

// Victim selection must cross IPC edges: the suspect receiver's chain leads
// to the lower-priority peer that would have sent to it.
func TestVictimSelectionAcrossIPCChain(t *testing.T) {
	s := sim.New()
	k := rtos.NewKernel(s, 2)
	q := k.NewQueue("q", 1)
	q2 := k.NewQueue("q2", 1)
	rx := k.CreateTask("rx", 0, 1, 0, func(c *rtos.TaskCtx) {
		q.Recv(c)
	})
	tx := k.CreateTask("tx", 1, 7, 0, func(c *rtos.TaskCtx) {
		q2.Recv(c) // blocks forever: nobody sends on q2
		q.Send(c, 1)
	})
	q.BindSender(tx)
	r := NewRecovery(k, nil, nil, nil, Abandon, 0, 0)
	var victim string
	s.Spawn("probe", -1, func(p *sim.Proc) {
		p.Delay(5000)
		victim = r.selectVictim(rx).Name
	})
	s.Run()
	if victim != "tx" {
		t.Errorf("victim = %q, want tx (lowest-priority task on the IPC chain)", victim)
	}
}

// Same seed, same randomized IPC fault plan, byte-identical outcome.
func TestIPCFaultDeterminism(t *testing.T) {
	kinds := []Kind{MsgDrop, MsgDelay, MsgDup, QueueStuckFull}
	run := func() (sim.Cycles, int, []Occurrence) {
		s := sim.New()
		k := rtos.NewKernel(s, 2)
		q := k.NewQueue("q", 1)
		delivered := 0
		k.CreateTask("tx", 0, 1, 0, func(c *rtos.TaskCtx) {
			for i := 0; i < 8; i++ {
				q.SendTimeout(c, i, 2000)
				c.Compute(500)
			}
		})
		k.CreateTask("rx", 1, 2, 0, func(c *rtos.TaskCtx) {
			for {
				if _, ok := q.RecvTimeout(c, 4000); !ok {
					return
				}
				delivered++
				c.Compute(300)
			}
		})
		p := NewPlan(99).Randomize(6, kinds, Profile{
			Tasks: []string{"tx", "rx"}, Endpoints: []string{"q"}, Horizon: 10000,
		})
		p.Attach(k, nil, nil, nil)
		s.Run()
		return s.Now(), delivered, p.Fired()
	}
	aEnd, aN, aOcc := run()
	bEnd, bN, bOcc := run()
	if aEnd != bEnd || aN != bN || len(aOcc) != len(bOcc) {
		t.Fatalf("nondeterministic: (%d,%d,%d occ) vs (%d,%d,%d occ)",
			aEnd, aN, len(aOcc), bEnd, bN, len(bOcc))
	}
	for i := range aOcc {
		if aOcc[i] != bOcc[i] {
			t.Errorf("occurrence %d differs: %+v vs %+v", i, aOcc[i], bOcc[i])
		}
	}
	if len(aOcc) == 0 {
		t.Error("randomized plan fired nothing; scenario too quiet to test")
	}
}
