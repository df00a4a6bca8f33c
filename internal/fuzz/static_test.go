package fuzz

import (
	"slices"
	"testing"
)

// denseDerive is the m×m walk Derive replaced, kept as a reference: the
// lock-order graph as an order[a][b] matrix filled by an O(m) held-set scan
// per acquire, claims read off a touched-resource mask.
func denseDerive(sc *Scenario) (order [][]bool, claims [][]int) {
	m := sc.Cfg.Resources
	order = make([][]bool, m)
	for a := range order {
		order[a] = make([]bool, m)
	}
	claims = make([][]int, len(sc.Progs))
	for t, prog := range sc.Progs {
		held := make([]bool, m)
		touched := make([]bool, m)
		for _, op := range prog.Ops {
			if op.Acquire {
				for a := 0; a < m; a++ {
					if held[a] {
						order[a][op.Res] = true
					}
				}
				held[op.Res] = true
				touched[op.Res] = true
			} else {
				held[op.Res] = false
			}
		}
		for r := 0; r < m; r++ {
			if touched[r] {
				claims[t] = append(claims[t], r)
			}
		}
	}
	return order, claims
}

// denseOrderCycle is the reference three-color DFS over the order matrix,
// probing every column of a frame's row.
func denseOrderCycle(order [][]bool) bool {
	m := len(order)
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, m)
	type frame struct{ v, next int }
	for start := 0; start < m; start++ {
		if color[start] != white {
			continue
		}
		stack := []frame{{start, 0}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			advanced := false
			for w := f.next; w < m; w++ {
				if !order[f.v][w] {
					continue
				}
				f.next = w + 1
				switch color[w] {
				case gray:
					return true
				case white:
					color[w] = gray
					stack = append(stack, frame{w, 0})
				default: // black: already explored
					continue
				}
				advanced = true
				break
			}
			if !advanced {
				color[f.v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return false
}

// checkDeriveAgainstDense compares every edge list, the edge count, the
// cycle verdict and each task's claims of Derive with the dense reference.
func checkDeriveAgainstDense(t *testing.T, label string, sc *Scenario) *Static {
	t.Helper()
	st := Derive(sc)
	order, claims := denseDerive(sc)
	edges := 0
	for a, row := range order {
		var want []int
		for b, e := range row {
			if e {
				want = append(want, b)
			}
		}
		edges += len(want)
		if got := st.succ[st.off[a]:st.off[a+1]]; !slices.Equal(got, want) {
			t.Fatalf("%s: successors of q%d = %v, dense reference %v", label, a, got, want)
		}
	}
	if st.Edges() != edges {
		t.Fatalf("%s: Edges() = %d, dense reference %d", label, st.Edges(), edges)
	}
	if want := denseOrderCycle(order); st.HasCycle() != want {
		t.Fatalf("%s: HasCycle() = %v, dense reference %v", label, st.HasCycle(), want)
	}
	for task := range sc.Progs {
		if got := st.Claims(task); !slices.Equal(got, claims[task]) || (got == nil) != (claims[task] == nil) {
			t.Fatalf("%s: Claims(%d) = %#v, dense reference %#v", label, task, got, claims[task])
		}
	}
	return st
}

// The CSR derivation must reproduce the dense m×m one on generated traffic
// at every contention point and on hand-written programs the generator
// never emits.
func TestDeriveMatchesDenseReference(t *testing.T) {
	for _, p := range DefaultSweep(64, 1).Points {
		for seed := uint64(0); seed < 64; seed++ {
			sc, err := Generate(seed, p.Gen)
			if err != nil {
				t.Fatal(err)
			}
			checkDeriveAgainstDense(t, p.Label, sc)
		}
	}

	acq := func(r int) Op { return Op{Acquire: true, Res: r} }
	rel := func(r int) Op { return Op{Res: r} }
	cases := []struct {
		name     string
		progs    [][]Op
		edges    int
		hasCycle bool
	}{
		// A re-acquire of a held lock is the self-edge q1→q1: a cycle.
		{"reacquire", [][]Op{{acq(1), acq(1), rel(1)}}, 1, true},
		{"inversion", [][]Op{{acq(0), acq(1), rel(1), rel(0)}, {acq(1), acq(0), rel(0), rel(1)}}, 2, true},
		{"chain", [][]Op{{acq(0), acq(1), acq(2), rel(2), rel(1), rel(0)}, {acq(2), acq(3), rel(3), rel(2)}}, 4, false},
		// Releasing q3, which the task never took, leaves q0 held, so the
		// later acquire of q2 still orders after q0.
		{"release-unheld", [][]Op{{acq(0), rel(3), acq(2), rel(2), rel(0)}, {rel(2)}}, 1, false},
	}
	for _, tc := range cases {
		sc := &Scenario{Cfg: DefaultGenConfig()}
		sc.Cfg.Tasks = len(tc.progs)
		sc.Cfg.Resources = 4
		for _, ops := range tc.progs {
			sc.Progs = append(sc.Progs, TaskProg{Ops: ops, CrashAt: -1})
		}
		st := checkDeriveAgainstDense(t, tc.name, sc)
		if st.Edges() != tc.edges || st.HasCycle() != tc.hasCycle {
			t.Errorf("%s: %d edges, cycle %v; want %d, %v", tc.name, st.Edges(), st.HasCycle(), tc.edges, tc.hasCycle)
		}
	}
}
