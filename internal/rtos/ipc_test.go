package rtos

import (
	"testing"

	"deltartos/internal/sim"
)

// TryRecv never blocks: it fails on an empty queue, takes a buffered item,
// and on a rendezvous queue takes the pending offer and releases its sender.
func TestQueueTryRecv(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	q := k.NewQueue("q", 1)
	rv := k.NewQueue("rv", 0)
	var emptyOK, fullOK, rvEmptyOK, rvOK bool
	var val, rvVal interface{}
	var sentAt sim.Cycles
	k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) {
		_, emptyOK = q.TryRecv(c)
		q.Send(c, 9)
		val, fullOK = q.TryRecv(c)
		_, rvEmptyOK = rv.TryRecv(c) // tx has not offered yet
		c.Compute(3000)
		rvVal, rvOK = rv.TryRecv(c)
	})
	k.CreateTask("tx", 1, 1, 0, func(c *TaskCtx) {
		c.Compute(1000)
		rv.Send(c, "offer")
		sentAt = c.Now()
	})
	s.Run()
	if emptyOK {
		t.Error("TryRecv on empty queue succeeded")
	}
	if !fullOK || val != 9 {
		t.Errorf("TryRecv on full queue: %v %v", val, fullOK)
	}
	if rvEmptyOK {
		t.Error("TryRecv on a rendezvous queue with no offer succeeded")
	}
	if !rvOK || rvVal != "offer" {
		t.Errorf("TryRecv on a pending offer: %v %v", rvVal, rvOK)
	}
	if sentAt < 3000 {
		t.Errorf("rendezvous sender released at %d, before the TryRecv took its offer", sentAt)
	}
	if !s.AllDone() {
		t.Errorf("blocked: %v", s.Blocked())
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	q := k.NewQueue("q", 4)
	var got []int
	k.CreateTask("tx", 0, 1, 0, func(c *TaskCtx) {
		for i := 1; i <= 4; i++ {
			q.Send(c, i)
		}
	})
	k.CreateTask("rx", 1, 2, 100, func(c *TaskCtx) {
		for i := 0; i < 4; i++ {
			got = append(got, q.Recv(c).(int))
		}
	})
	s.Run()
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
	if q.HighWater == 0 {
		t.Error("high-water mark not tracked")
	}
}

func TestQueueBlocksWhenFull(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	q := k.NewQueue("q", 2)
	var thirdAt sim.Cycles
	k.CreateTask("tx", 0, 1, 0, func(c *TaskCtx) {
		q.Send(c, 1)
		q.Send(c, 2)
		q.Send(c, 3)
		thirdAt = c.Now()
	})
	k.CreateTask("rx", 1, 1, 0, func(c *TaskCtx) {
		c.Compute(4000)
		q.Recv(c)
		q.Recv(c)
		q.Recv(c)
	})
	s.Run()
	if thirdAt < 4000 {
		t.Errorf("third send at %d (no backpressure)", thirdAt)
	}
}

func TestQueueCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewKernel(sim.New(), 1).NewQueue("bad", -1)
}

func TestQueueRecvBlocksWhenEmpty(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	q := k.NewQueue("q", 2)
	var at sim.Cycles
	k.CreateTask("rx", 0, 1, 0, func(c *TaskCtx) {
		q.Recv(c)
		at = c.Now()
	})
	k.CreateTask("tx", 1, 1, 0, func(c *TaskCtx) {
		c.Compute(2500)
		q.Send(c, "x")
	})
	s.Run()
	if at < 2500 {
		t.Errorf("recv returned at %d", at)
	}
}

func TestEventFlagsWaitAny(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	e := k.NewEventFlags("ev")
	var got uint32
	k.CreateTask("waiter", 0, 1, 0, func(c *TaskCtx) {
		got = e.Wait(c, 0b110, false)
	})
	k.CreateTask("setter", 1, 1, 0, func(c *TaskCtx) {
		c.Compute(100)
		e.Set(c, 0b001) // not in mask: waiter stays blocked
		c.Compute(100)
		e.Set(c, 0b010)
	})
	s.Run()
	if got != 0b010 {
		t.Errorf("Wait returned %03b", got)
	}
}

func TestEventFlagsWaitAll(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	e := k.NewEventFlags("ev")
	var doneAt sim.Cycles
	k.CreateTask("waiter", 0, 1, 0, func(c *TaskCtx) {
		e.Wait(c, 0b11, true)
		doneAt = c.Now()
	})
	k.CreateTask("setter", 1, 1, 0, func(c *TaskCtx) {
		c.Compute(100)
		e.Set(c, 0b01)
		c.Compute(900)
		e.Set(c, 0b10)
	})
	s.Run()
	if doneAt < 1000 {
		t.Errorf("wait-all satisfied early at %d", doneAt)
	}
}

func TestEventFlagsAlreadySatisfied(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	e := k.NewEventFlags("ev")
	var ok bool
	k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) {
		e.Set(c, 0b1)
		e.Wait(c, 0b1, false) // returns immediately
		ok = true
	})
	s.Run()
	if !ok {
		t.Error("pre-satisfied wait blocked")
	}
}
