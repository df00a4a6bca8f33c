package rtos

import (
	"strings"
	"testing"

	"deltartos/internal/sim"
)

func TestMutexBasicExclusion(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	m := k.NewMutex("m")
	inCS, maxCS, acquires := 0, 0, 0
	body := func(c *TaskCtx) {
		for i := 0; i < 3; i++ {
			m.Lock(c)
			acquires++
			inCS++
			if inCS > maxCS {
				maxCS = inCS
			}
			c.Compute(100)
			inCS--
			m.Unlock(c)
			c.Compute(50)
		}
	}
	k.CreateTask("a", 0, 1, 0, body)
	k.CreateTask("b", 1, 1, 0, body)
	s.Run()
	if maxCS != 1 {
		t.Errorf("mutual exclusion violated: max occupancy %d", maxCS)
	}
	if acquires != 6 {
		t.Errorf("acquires = %d", acquires)
	}
}

func TestMutexHandoffToHighestPriority(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 3)
	m := k.NewMutex("m")
	var order []string
	k.CreateTask("owner", 0, 3, 0, func(c *TaskCtx) {
		m.Lock(c)
		c.Compute(2000)
		m.Unlock(c)
	})
	k.CreateTask("low", 1, 5, 100, func(c *TaskCtx) {
		m.Lock(c)
		order = append(order, "low")
		m.Unlock(c)
	})
	k.CreateTask("high", 2, 1, 200, func(c *TaskCtx) {
		m.Lock(c)
		order = append(order, "high")
		m.Unlock(c)
	})
	s.Run()
	if len(order) != 2 || order[0] != "high" {
		t.Errorf("hand-off order = %v", order)
	}
}

func TestMutexRelockPanics(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	m := k.NewMutex("m")
	var recovered interface{}
	k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) {
		defer func() { recovered = recover() }()
		m.Lock(c)
		m.Lock(c)
	})
	s.Run()
	if recovered == nil {
		t.Error("re-lock did not panic")
	}
}

func TestMutexWrongUnlockPanics(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	m := k.NewMutex("m")
	var recovered interface{}
	k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) {
		defer func() { recovered = recover() }()
		m.Unlock(c)
	})
	s.Run()
	if recovered == nil {
		t.Error("unlock by non-owner did not panic")
	}
}

func TestWaitQueue(t *testing.T) {
	task := func(name string, prio int) *Task { return &Task{Name: name, CurPrio: prio} }
	a, b, c, d, e := task("a", 2), task("b", 1), task("c", 2), task("d", 3), task("e", 1)
	absent := task("absent", 1)
	names := func(q *WaitQueue) string {
		var out []string
		for _, t := range q.tasks {
			out = append(out, t.Name)
		}
		return strings.Join(out, ",")
	}
	fill := func() *WaitQueue {
		var q WaitQueue
		for _, t := range []*Task{a, b, c, d, e} {
			q.Push(t)
		}
		return &q
	}
	if got := names(fill()); got != "b,e,a,c,d" {
		t.Fatalf("push order = %s, want b,e,a,c,d (priority, FIFO within a priority)", got)
	}
	for _, tc := range []struct {
		name   string
		remove *Task
		found  bool
		want   string
	}{
		{"head", b, true, "e,a,c,d"},
		{"middle", a, true, "b,e,c,d"},
		{"tail", d, true, "b,e,a,c"},
		{"absent", absent, false, "b,e,a,c,d"},
	} {
		t.Run("remove "+tc.name, func(t *testing.T) {
			q := fill()
			if got := q.Remove(tc.remove); got != tc.found {
				t.Errorf("Remove(%s) = %v, want %v", tc.remove.Name, got, tc.found)
			}
			if got := names(q); got != tc.want {
				t.Errorf("after Remove(%s): %s, want %s", tc.remove.Name, got, tc.want)
			}
			if q.Has(tc.remove) {
				t.Errorf("Has(%s) after Remove", tc.remove.Name)
			}
			if q.Len() != strings.Count(tc.want, ",")+1 {
				t.Errorf("Len = %d, want %d", q.Len(), strings.Count(tc.want, ",")+1)
			}
		})
	}
	q := fill()
	var popped []string
	for q.Len() > 0 {
		popped = append(popped, q.Pop().Name)
	}
	if got := strings.Join(popped, ","); got != "b,e,a,c,d" {
		t.Errorf("pop order = %s, want b,e,a,c,d", got)
	}
	if got := q.Pop(); got != nil {
		t.Errorf("Pop on empty = %s, want nil", got.Name)
	}
	if q.Has(a) || q.Remove(a) {
		t.Error("empty queue reports a member")
	}
}
