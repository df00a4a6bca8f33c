package app

import (
	"sort"
	"strings"
	"testing"

	"deltartos/internal/ddu"
	"deltartos/internal/pdda"
	"deltartos/internal/rtos"
	"deltartos/internal/sim"
)

// The kernel's scheduler-level deadlock census (Kernel.Deadlocked) and the
// DDU's matrix reduction must agree on WHO is deadlocked.  This drives the
// fig13-sized unit (3 processes x 3 resources) with a three-way mutex ring
// built on real kernel tasks, mirrors the grant/request edges into the DDU
// the way an RTOS integration would program its command registers, and
// cross-checks the two reports.
func TestKernelAndDDUAgreeOnDeadlockSet(t *testing.T) {
	s := sim.New()
	k := rtos.NewKernel(s, 3)
	names := []string{"pA", "pB", "pC"}
	ms := []*rtos.Mutex{
		k.NewMutex("m0"),
		k.NewMutex("m1"),
		k.NewMutex("m2"),
	}

	// Ring: pI holds m_I and then wants m_{I+1}.  The compute phase lets all
	// three take their first mutex before anyone requests the second.
	for i, name := range names {
		first, second := ms[i], ms[(i+1)%3]
		k.CreateTask(name, i, 1, 0, func(c *rtos.TaskCtx) {
			first.Lock(c)
			c.Compute(500)
			second.Lock(c)
			second.Unlock(c)
			first.Unlock(c)
		})
	}
	s.Run()

	wantDead := append([]string(nil), names...)
	gotKernel := k.Deadlocked()
	sort.Strings(gotKernel)
	if strings.Join(gotKernel, ",") != strings.Join(wantDead, ",") {
		t.Fatalf("Kernel.Deadlocked() = %v, want %v", gotKernel, wantDead)
	}
	// Every deadlocked task must be blocked on the mutex the ring predicts.
	for i, task := range k.Tasks() {
		want := "mutex:m" + string(rune('0'+(i+1)%3))
		if got := task.BlockedOn(); got != want {
			t.Errorf("%s blocked on %q, want %q", task.Name, got, want)
		}
	}

	// Mirror the kernel's resource state into the fig13 DDU: row = resource,
	// column = process.  pI holds m_I (grant) and requests m_{I+1}.
	u, err := ddu.New(ddu.Config{Procs: 3, Resources: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		u.SetGrant(i, i)
		u.SetRequest((i+1)%3, i)
	}
	res := u.Detect()
	if !res.Deadlock {
		t.Fatal("DDU reports no deadlock for the mutex ring")
	}

	// The DDU decides deadlock/no-deadlock; the deadlocked process SET is
	// what survives the terminal reduction.  Reduce a copy of the DDU matrix
	// and read the residual columns.
	residual := u.Matrix().Clone()
	pdda.Reduce(residual)
	var gotDDU []string
	for p := 0; p < 3; p++ {
		involved := false
		for q := 0; q < 3; q++ {
			if residual.Get(q, p) != 0 {
				involved = true
			}
		}
		if involved {
			gotDDU = append(gotDDU, names[p])
		}
	}
	if strings.Join(gotDDU, ",") != strings.Join(wantDead, ",") {
		t.Errorf("DDU residual set = %v, want %v (kernel says %v)", gotDDU, wantDead, gotKernel)
	}
}

// Negative control: a plain contention chain (no cycle) must be clear in
// both views.
func TestKernelAndDDUAgreeOnNoDeadlock(t *testing.T) {
	s := sim.New()
	k := rtos.NewKernel(s, 3)
	m := k.NewMutex("m0")
	for i, name := range []string{"pA", "pB", "pC"} {
		k.CreateTask(name, i, 1, 0, func(c *rtos.TaskCtx) {
			m.Lock(c)
			c.Compute(300)
			m.Unlock(c)
		})
	}
	s.Run()
	if dead := k.Deadlocked(); len(dead) != 0 {
		t.Errorf("Kernel.Deadlocked() = %v, want none", dead)
	}

	u, err := ddu.New(ddu.Config{Procs: 3, Resources: 3})
	if err != nil {
		t.Fatal(err)
	}
	u.SetGrant(0, 0)   // pA holds m0
	u.SetRequest(0, 1) // pB waits
	u.SetRequest(0, 2) // pC waits
	if res := u.Detect(); res.Deadlock {
		t.Error("DDU reports deadlock for a cycle-free chain")
	}
}
