package main

import (
	"sync"
	"time"
)

// Span is one timed call into a layer: a name, its start and end in
// nanoseconds since the tracer's epoch, and the index of the span that
// caused it (-1 for a root).
type Span struct {
	Name       string
	Start, End int64
	Parent     int
}

// Tracer keeps spans in memory for one traced iteration.  It is safe for
// concurrent use (the fuzz replica records from every campaign worker).  A
// nil *Tracer records nothing: Begin returns -1 and End ignores it, so the
// untraced path pays one nil check per boundary.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span under parent and returns its id.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: -1, Parent: parent})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Spans returns the recorded spans (the tracer must be quiescent).
func (t *Tracer) Spans() []Span { return t.spans }

// selfTimes returns, per span name, the summed self time in nanoseconds: a
// span's duration minus the part of it that its child spans cover (children
// running in parallel are counted once).  Spans left open count as empty.
func selfTimes(spans []Span) map[string]int64 {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		self := s.End - s.Start
		if kids := children[i]; len(kids) > 0 {
			clipped := make([]interval, 0, len(kids))
			for _, k := range kids {
				lo, hi := max(k.lo, s.Start), min(k.hi, s.End)
				if hi > lo {
					clipped = append(clipped, interval{lo, hi})
				}
			}
			self -= unionLength(clipped)
		}
		out[s.Name] += self
	}
	return out
}

// leafCoverage returns the share of the root spans' wall time that leaf
// spans (spans no other span names as parent) cover: how much of an
// iteration runs inside timed calls into the program rather than in the
// benchmark's own bookkeeping.  Overlapping spans of parallel workers count
// once.
func leafCoverage(spans []Span) float64 {
	isParent := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			isParent[s.Parent] = true
		}
	}
	var roots, leaves []interval
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		if s.Parent < 0 {
			roots = append(roots, interval{s.Start, s.End})
		} else if !isParent[i] {
			leaves = append(leaves, interval{s.Start, s.End})
		}
	}
	total := unionLength(roots)
	if total == 0 {
		return 0
	}
	return float64(unionLength(leaves)) / float64(total)
}
