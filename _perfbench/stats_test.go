package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of no samples is not NaN")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestHighPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		wantQ float64
	}{{100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {3, 0.5}} {
		if _, q := highPercentile(seq(c.n)); q != c.wantQ {
			t.Errorf("%d samples: percentile %v, want %v", c.n, q, c.wantQ)
		}
	}
	if v, _ := highPercentile(seq(101)); v != 90 {
		t.Errorf("p90 of 0..100 = %v, want 90", v)
	}
}

func TestUnionLength(t *testing.T) {
	ivs := []interval{{10, 20}, {0, 5}, {15, 30}, {40, 41}, {3, 4}, {50, 50}}
	if got := unionLength(ivs); got != 5+20+1 {
		t.Errorf("union = %d, want 26", got)
	}
}

func TestSelfTimesSubtractChildrenOnce(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		// Two children running in parallel overlap on [20,30): covered once.
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 40, Parent: 0},
		// A grandchild reduces a's self time, not root's.
		{Name: "c", Start: 12, End: 18, Parent: 1},
		// A child outside its parent's interval is clipped away.
		{Name: "d", Start: 95, End: 120, Parent: 0},
		// An open span counts as empty.
		{Name: "e", Start: 50, End: -1, Parent: 0},
	}
	got := selfTimes(spans)
	want := map[string]int64{"root": 100 - 30 - 5, "a": 20 - 6, "b": 20, "c": 6, "d": 25}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	if _, ok := got["e"]; ok {
		t.Errorf("an open span was given a self time")
	}
}

func TestLeafCoverage(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "mid", Start: 0, End: 80, Parent: 0},
		{Name: "leaf1", Start: 0, End: 30, Parent: 1},
		{Name: "leaf2", Start: 20, End: 50, Parent: 1},
		{Name: "leaf3", Start: 90, End: 95, Parent: 0},
	}
	if got := leafCoverage(spans); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("coverage = %v, want 0.55", got)
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", -1)
	tr.End(id)
	if id != -1 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	tr = NewTracer()
	root := tr.Begin("root", -1)
	child := tr.Begin("child", root)
	tr.End(child)
	tr.End(root)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != root || s[0].End < s[1].End {
		t.Errorf("spans = %+v", s)
	}
}
