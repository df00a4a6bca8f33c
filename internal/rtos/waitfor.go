package rtos

// The kernel's wait-for graph over blocked tasks, covering both lock edges
// (mutex waiter -> owner) and IPC endpoint edges (blocked receiver -> the
// endpoint's senders, blocked sender -> its receivers, event waiter -> its
// setters).  Recovery victim selection walks it to traverse mixed lock+IPC
// cycles, and IPCDeadlockCore computes the irreducible set of tasks wedged
// on message passing — the runtime half of the static ipc deltalint pass's
// cross-check contract (static report ⊇ runtime core).

// waitNode is the wait-for-graph surface of a kernel sync object.
type waitNode interface {
	// waitPeers reports the tasks that could wake t if t is currently
	// waiting on this object (ok=false when it is not waiting here, or when
	// a non-task waker — a fault-delay delivery, a jam-expiry timer — will
	// release it without any task's help).
	waitPeers(t *Task) (peers []*Task, what string, ok bool)
	// ipcEndpoint reports whether the object is a message-passing endpoint
	// (queue, event group) as opposed to a lock.
	ipcEndpoint() bool
}

// Queues returns the kernel's message queues in creation order.  Fault
// harnesses use it to resolve endpoint names to handles (for jam faults)
// without widening the attach surface.
func (k *Kernel) Queues() []*Queue {
	var out []*Queue
	for _, o := range k.syncObjs {
		if q, ok := o.(*Queue); ok {
			out = append(out, q)
		}
	}
	return out
}

// waitInfo locates the sync object t is blocked on.  known=false means t is
// blocked on something outside the kernel's wait-for graph (a Park string, a
// device interrupt, a long-lock manager) — conservatively treated as
// rescuable by IPCDeadlockCore.
func (k *Kernel) waitInfo(t *Task) (peers []*Task, what string, ipc, known bool) {
	if t.state != StateBlocked {
		return nil, "", false, false
	}
	for _, o := range k.syncObjs {
		n, ok := o.(waitNode)
		if !ok {
			continue
		}
		if ps, w, waiting := n.waitPeers(t); waiting {
			return ps, w, n.ipcEndpoint(), true
		}
	}
	return nil, "", false, false
}

// WaitPeers returns the tasks that could wake t from its current block:
// the owner of the mutex it waits on, or the opposite side of the IPC
// endpoint it is blocked in.  Empty when t is not blocked, or is blocked on
// an object outside the kernel's graph.  Deterministic order (first-use
// order of the endpoint's peer sets).
func (k *Kernel) WaitPeers(t *Task) []*Task {
	peers, _, _, _ := k.waitInfo(t)
	return peers
}

// IPCWaitsOn names the IPC endpoint t is currently blocked on ("" when t is
// not blocked on a queue or event group).
func (k *Kernel) IPCWaitsOn(t *Task) string {
	_, what, ipc, known := k.waitInfo(t)
	if !known || !ipc {
		return ""
	}
	return what
}

// IPCDeadlockCore returns the names of tasks irreducibly wedged on IPC
// endpoints, in task-creation order.  A blocked task is rescuable if any of
// its potential wakers can still make progress; the rescuable set is grown
// to a fixpoint from every task that can run on its own.  The computation is
// deliberately conservative in the rescuable direction — tasks blocked on
// objects outside the kernel's graph, suspended tasks, and waits covered by
// pending non-task wakers all count as rescuable — so the core is a lower
// bound on the truly wedged set and stays ⊆ any sound static over-approximation
// (the deltalint ipc pass cross-check relies on this inclusion).
func (k *Kernel) IPCDeadlockCore() []string {
	n := len(k.tasks)
	resc := make([]bool, n)
	// type of block per task, resolved once.
	peers := make([][]*Task, n)
	isIPC := make([]bool, n)
	for i, t := range k.tasks {
		switch t.state {
		case StateBlocked:
			ps, _, ipc, known := k.waitInfo(t)
			if !known {
				resc[i] = true // opaque block: conservatively rescuable
				continue
			}
			peers[i] = ps
			isIPC[i] = ipc
		case StateDone, StateKilled:
			// Finished or dead: cannot make further progress, wakes nobody.
		default:
			// Dormant, ready, running, sleeping, suspended: can (or may be
			// made to) run again on its own.
			resc[i] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for i, t := range k.tasks {
			if resc[i] || t.state != StateBlocked {
				continue
			}
			for _, p := range peers[i] {
				if resc[p.ID] {
					resc[i] = true
					changed = true
					break
				}
			}
		}
	}
	var core []string
	for i, t := range k.tasks {
		if t.state == StateBlocked && isIPC[i] && !resc[i] {
			core = append(core, t.Name)
		}
	}
	return core
}
