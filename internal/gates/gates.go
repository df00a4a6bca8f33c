// Package gates provides a structural gate-level area model used to estimate
// the synthesis results of generated hardware units in NAND2-equivalent gates.
//
// The paper reports the area of the DDU, DAU and SoCLC as a count of
// minimum-size two-input NAND gates in a standard-cell library (AMIS 0.3µm for
// the DDU, QualCore Logic 0.25µm for the DAU).  We do not run a synthesis
// tool; instead every generated module is assembled from the primitive gates
// below, each weighted by its conventional NAND2-equivalent area, and the
// netlist is summed.  The weights are the textbook static-CMOS transistor
// ratios (NAND2 = 4 transistors = 1.0 equivalent).
package gates

import (
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates the primitive cells the area model understands.
type Kind int

// Primitive cell kinds. DFF and friends are sequential; everything else is
// combinational.
const (
	INV Kind = iota
	BUF
	NAND2
	NAND3
	NAND4
	NOR2
	NOR3
	AND2
	AND3
	OR2
	OR3
	XOR2
	XNOR2
	MUX2
	AOI21 // and-or-invert (a&b)|c inverted
	OAI21
	DFF   // D flip-flop with no reset
	DFFR  // D flip-flop with async reset
	DFFE  // D flip-flop with enable
	LATCH // level-sensitive latch
	numKinds
)

var kindNames = [...]string{
	INV: "INV", BUF: "BUF", NAND2: "NAND2", NAND3: "NAND3", NAND4: "NAND4",
	NOR2: "NOR2", NOR3: "NOR3", AND2: "AND2", AND3: "AND3", OR2: "OR2",
	OR3: "OR3", XOR2: "XOR2", XNOR2: "XNOR2", MUX2: "MUX2", AOI21: "AOI21",
	OAI21: "OAI21", DFF: "DFF", DFFR: "DFFR", DFFE: "DFFE", LATCH: "LATCH",
}

// String returns the cell name, e.g. "NAND2".
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// equivalents maps each primitive to its NAND2-equivalent area.  Values follow
// the usual 4-transistor = 1.0 convention for static CMOS standard cells.
var equivalents = [...]float64{
	INV:   0.5,
	BUF:   1.0,
	NAND2: 1.0,
	NAND3: 1.5,
	NAND4: 2.0,
	NOR2:  1.0,
	NOR3:  1.5,
	AND2:  1.5,
	AND3:  2.0,
	OR2:   1.5,
	OR3:   2.0,
	XOR2:  2.5,
	XNOR2: 2.5,
	MUX2:  2.5,
	AOI21: 1.5,
	OAI21: 1.5,
	DFF:   6.0,
	DFFR:  6.5,
	DFFE:  7.5,
	LATCH: 3.5,
}

// Equivalent returns the NAND2-equivalent area of a single cell of kind k.
func Equivalent(k Kind) float64 {
	if k < 0 || int(k) >= len(equivalents) {
		return 0
	}
	return equivalents[k]
}

// Sequential reports whether the cell kind holds state.
func Sequential(k Kind) bool {
	//deltalint:partial set-membership test; every unlisted kind is combinational
	switch k {
	case DFF, DFFR, DFFE, LATCH:
		return true
	}
	return false
}

// Netlist accumulates primitive cell counts for one hardware module.  The zero
// value is an empty netlist ready to use.
type Netlist struct {
	counts [numKinds]int
	subs   []sub // instantiated sub-netlists
}

type sub struct {
	name string
	n    *Netlist
	mult int
}

// Add records n instances of cell kind k.
func (nl *Netlist) Add(k Kind, n int) {
	if n < 0 {
		panic("gates: negative cell count")
	}
	if k < 0 || int(k) >= int(numKinds) {
		panic("gates: unknown cell kind")
	}
	nl.counts[k] += n
}

// AddSub instantiates mult copies of a sub-module netlist under the given
// instance name.  The sub-netlist is referenced, not copied; callers must not
// mutate it afterwards.
func (nl *Netlist) AddSub(name string, s *Netlist, mult int) {
	if mult < 0 {
		panic("gates: negative sub-module multiplicity")
	}
	nl.subs = append(nl.subs, sub{name: name, n: s, mult: mult})
}

// Count returns the number of direct (non-hierarchical) cells of kind k.
func (nl *Netlist) Count(k Kind) int { return nl.counts[k] }

// TotalCells returns the flattened number of primitive cells.
func (nl *Netlist) TotalCells() int {
	t := 0
	for _, c := range nl.counts {
		t += c
	}
	for _, s := range nl.subs {
		t += s.mult * s.n.TotalCells()
	}
	return t
}

// FlipFlops returns the flattened number of sequential cells.
func (nl *Netlist) FlipFlops() int {
	t := 0
	for k := Kind(0); k < numKinds; k++ {
		if Sequential(k) {
			t += nl.counts[k]
		}
	}
	for _, s := range nl.subs {
		t += s.mult * s.n.FlipFlops()
	}
	return t
}

// Area returns the flattened NAND2-equivalent area of the netlist.
func (nl *Netlist) Area() float64 {
	a := 0.0
	for k, c := range nl.counts {
		a += float64(c) * equivalents[k]
	}
	for _, s := range nl.subs {
		a += float64(s.mult) * s.n.Area()
	}
	return a
}

// AreaGates returns the area rounded to whole NAND2 gates, the unit used in
// the paper's synthesis tables.
func (nl *Netlist) AreaGates() int {
	return int(nl.Area() + 0.5)
}

// Report returns a human-readable per-kind breakdown sorted by area
// contribution (largest first), including flattened sub-modules.
func (nl *Netlist) Report() string {
	flat := map[Kind]int{}
	nl.flattenInto(flat, 1)
	type row struct {
		k    Kind
		n    int
		area float64
	}
	rows := make([]row, 0, len(flat))
	for k, n := range flat {
		rows = append(rows, row{k, n, float64(n) * equivalents[k]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].area != rows[j].area {
			return rows[i].area > rows[j].area
		}
		return rows[i].k < rows[j].k
	})
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s x%-6d %8.1f\n", r.k, r.n, r.area)
	}
	fmt.Fprintf(&b, "total %d cells, %d NAND2-equivalent gates\n",
		nl.TotalCells(), nl.AreaGates())
	return b.String()
}

func (nl *Netlist) flattenInto(m map[Kind]int, mult int) {
	for k, c := range nl.counts {
		if c != 0 {
			m[Kind(k)] += mult * c
		}
	}
	for _, s := range nl.subs {
		s.n.flattenInto(m, mult*s.mult)
	}
}

// Common composite builders used by the hardware generators. They add the
// standard decomposition of a wider function into library primitives.

// AddWideOR adds an n-input OR reduction built from OR3/OR2 cells.
func (nl *Netlist) AddWideOR(n int) {
	nl.addWideAssoc(n, OR3, OR2)
}

// AddWideAND adds an n-input AND reduction built from AND3/AND2 cells.
func (nl *Netlist) AddWideAND(n int) {
	nl.addWideAssoc(n, AND3, AND2)
}

func (nl *Netlist) addWideAssoc(n int, three, two Kind) {
	if n <= 1 {
		return
	}
	// Reduce greedily with 3-input cells, finishing with a 2-input cell when
	// the remainder is even.  This mirrors what a mapper does with a simple
	// library and keeps the area estimate mildly conservative.
	remaining := n
	for remaining > 1 {
		if remaining == 2 {
			nl.Add(two, 1)
			remaining = 1
		} else {
			nl.Add(three, 1)
			remaining -= 2
		}
	}
}

// AddWiredOR adds an n-input dynamic (precharged wired-OR) reduction: one
// pull-down transistor pair per input (~0.25 NAND2-equivalent) plus a
// precharge/keeper stage.  Hand-designed units like the DDU weight cells use
// this style instead of static OR trees; it is what keeps the paper's
// per-cell area low.
func (nl *Netlist) AddWiredOR(n int) {
	if n <= 1 {
		return
	}
	// Account pull-downs in whole NAND2 equivalents: 1 per 4 inputs.
	nl.Add(NAND2, (n+3)/4)
	nl.Add(INV, 2) // precharge + keeper
}

// AddRegister adds an n-bit register with enable.
func (nl *Netlist) AddRegister(bits int) {
	nl.Add(DFFE, bits)
}

// AddComparator adds an n-bit equality comparator (XNOR per bit + AND tree).
func (nl *Netlist) AddComparator(bits int) {
	nl.Add(XNOR2, bits)
	nl.AddWideAND(bits)
}

// AddMagnitudeComparator adds an n-bit greater-than comparator built from the
// usual ripple structure (per-bit XOR/AND/OR plus priority chain).
func (nl *Netlist) AddMagnitudeComparator(bits int) {
	nl.Add(XOR2, bits)
	nl.Add(AND2, 2*bits)
	nl.Add(OR2, bits)
	nl.Add(INV, bits)
}

// AddMux adds an n-way b-bit multiplexer tree.
func (nl *Netlist) AddMux(ways, bits int) {
	if ways <= 1 {
		return
	}
	// A balanced tree of 2:1 muxes needs ways-1 mux cells per bit.
	nl.Add(MUX2, (ways-1)*bits)
}

// AddDecoder adds an n-to-2^n one-hot decoder.
func (nl *Netlist) AddDecoder(selBits int) {
	outs := 1 << selBits
	nl.Add(INV, selBits)
	for i := 0; i < outs; i++ {
		nl.AddWideAND(selBits)
	}
}

// AddPriorityEncoder adds a v-input priority encoder (one-hot of highest
// priority asserted input) built from the standard inhibit chain.
func (nl *Netlist) AddPriorityEncoder(inputs int) {
	if inputs <= 1 {
		return
	}
	nl.Add(INV, inputs-1)
	nl.AddWideOR(inputs) // "any" output
	for i := 1; i < inputs; i++ {
		nl.AddWideAND(min(i+1, 4))
	}
}
