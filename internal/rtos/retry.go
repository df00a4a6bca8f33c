package rtos

// RetryPolicy: a small deterministic retry/backoff discipline over the
// deadline-bounded IPC operations.  Each attempt is bounded by Timeout
// cycles; after a failed attempt the task sleeps Backoff << attempt cycles
// (deterministic exponential backoff — no jitter, so identical seeds yield
// identical schedules) before trying again, up to Attempts total tries.

import "deltartos/internal/sim"

// RetryPolicy bounds a blocking IPC operation.
type RetryPolicy struct {
	// Attempts is the total number of tries (minimum 1).
	Attempts int
	// Timeout bounds each attempt, in cycles.
	Timeout sim.Cycles
	// Backoff is the base inter-attempt sleep; attempt i (0-based) failing
	// sleeps Backoff << i before attempt i+1.  0 retries immediately.
	Backoff sim.Cycles
}

// Do runs attempt(timeout) up to pol.Attempts times with exponential backoff
// between failures; reports whether any attempt succeeded.
func (pol RetryPolicy) Do(c *TaskCtx, attempt func(timeout sim.Cycles) bool) bool {
	n := pol.Attempts
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		if attempt(pol.Timeout) {
			return true
		}
		if i+1 < n && pol.Backoff > 0 {
			c.Sleep(pol.Backoff << uint(i))
		}
	}
	return false
}

// SendRetry sends with per-attempt timeouts and backoff; reports delivery.
func (q *Queue) SendRetry(c *TaskCtx, msg interface{}, pol RetryPolicy) bool {
	return pol.Do(c, func(to sim.Cycles) bool { return q.SendTimeout(c, msg, to) })
}

// RecvRetry receives with per-attempt timeouts and backoff.
func (q *Queue) RecvRetry(c *TaskCtx, pol RetryPolicy) (interface{}, bool) {
	var msg interface{}
	ok := pol.Do(c, func(to sim.Cycles) bool {
		m, got := q.RecvTimeout(c, to)
		if got {
			msg = m
		}
		return got
	})
	return msg, ok
}

// WaitRetry waits for the mask condition with per-attempt timeouts and
// backoff; reports whether it was met.
func (e *EventFlags) WaitRetry(c *TaskCtx, mask uint32, all bool, pol RetryPolicy) (uint32, bool) {
	var bits uint32
	ok := pol.Do(c, func(to sim.Cycles) bool {
		b, got := e.WaitTimeout(c, mask, all, to)
		bits = b
		return got
	})
	return bits, ok
}
