// Package socdmmu models the SoC Dynamic Memory Management Unit (Shalan &
// Mooney; Section 2.3.2): a hardware unit that allocates and deallocates
// global L2 memory among PEs in a fast, deterministic number of cycles,
// together with the conventional software allocator (glibc-style malloc/free
// free list) it is compared against in Tables 11 and 12.
//
// Both allocators implement Allocator and record the cycles spent in memory
// management, which is exactly the quantity those tables report.
package socdmmu

import (
	"errors"
	"fmt"
	"sort"

	"deltartos/internal/gates"
	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/trace"
	"deltartos/internal/verilog"
)

// ErrBadFree reports a Free of an address that is not the start of a live
// allocation: a double free, a free of an address inside a block but not at
// its start, or a free of something never allocated.  Counted in
// Stats.BadFrees.
var ErrBadFree = errors.New("socdmmu: bad free")

// record sends an allocator event to the simulation's recorder, if attached.
func record(c *rtos.TaskCtx, name string, start sim.Cycles, bytes int, addr Addr, err error) {
	r := c.Kernel().S.Rec
	if r == nil {
		return
	}
	verdict := "ok"
	if err != nil {
		verdict = "fail"
	}
	r.Record(trace.Event{
		Cycle: start, Dur: c.Now() - start,
		PE: c.Task().PE, Proc: c.Task().Name,
		Kind: trace.KindAlloc, Name: name, Words: bytes, Arg: int64(addr), Verdict: verdict,
	})
}

// Addr is a global (L2) memory address.
type Addr uint32

// Allocator is the interface the benchmark kernels allocate through.
type Allocator interface {
	// Alloc returns the address of a bytes-long region.
	Alloc(c *rtos.TaskCtx, bytes int) (Addr, error)
	// Free releases a region previously returned by Alloc.
	Free(c *rtos.TaskCtx, addr Addr) error
	// Stats returns accumulated measurements.
	Stats() Stats
}

// Stats aggregates the memory-management measurements of Tables 11/12.
type Stats struct {
	Allocs, Frees int
	MgmtCycles    sim.Cycles // total cycles spent inside Alloc/Free
	FailedAllocs  int
	BadFrees      int // rejected Free calls (ErrBadFree)
	DroppedFrees  int // G_dealloc commands lost to injected faults (leaks)
	Reclaims      int // allocations force-freed by recovery (ReclaimOwnedBy)
}

// Config sizes an SoCDMMU (the "number of memory blocks" generator
// parameter of the δ framework GUI).
type Config struct {
	TotalBytes int
	BlockBytes int
	PEs        int
}

// DefaultConfig is the paper's base system: 16 MB of global memory managed
// in 64 KB blocks for 4 PEs.
func DefaultConfig() Config {
	return Config{TotalBytes: 16 << 20, BlockBytes: 64 << 10, PEs: 4}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TotalBytes <= 0 || c.BlockBytes <= 0 || c.PEs <= 0 {
		return fmt.Errorf("socdmmu: invalid config %+v", c)
	}
	if c.TotalBytes%c.BlockBytes != 0 {
		return fmt.Errorf("socdmmu: total %d not a multiple of block %d", c.TotalBytes, c.BlockBytes)
	}
	return nil
}

// Blocks returns the number of managed blocks.
func (c Config) Blocks() int { return c.TotalBytes / c.BlockBytes }

// execCycles is the deterministic execution time of one SoCDMMU command
// (the unit completes a G_alloc_ex/G_dealloc in 4 cycles).
const execCycles = 4

// Injector is the fault-injection hook a campaign attaches to the unit.
// Implementations must be deterministic functions of their arguments and
// their own seeded state.
type Injector interface {
	// DropFree reports whether this G_dealloc command is lost in flight:
	// the caller believes the free succeeded but the block stays allocated
	// (a leak).
	DropFree(task string, addr Addr, now sim.Cycles) bool
}

// Unit is the hardware SoCDMMU.
type Unit struct {
	cfg   Config
	owner []int // block -> PE (-1 free)
	spans map[Addr]int
	stats Stats
	// PerPE counts blocks held by each PE (the allocation table the unit
	// uses for virtual-to-physical conversion).
	PerPE []int

	tags   map[Addr]string // allocation -> owning task name
	leaked map[Addr]bool   // allocations leaked by injected DropFree faults
	inj    Injector
}

// New builds an SoCDMMU.
func New(cfg Config) (*Unit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	u := &Unit{
		cfg:    cfg,
		owner:  make([]int, cfg.Blocks()),
		spans:  map[Addr]int{},
		PerPE:  make([]int, cfg.PEs),
		tags:   map[Addr]string{},
		leaked: map[Addr]bool{},
	}
	for i := range u.owner {
		u.owner[i] = -1
	}
	return u, nil
}

// Config returns the unit configuration.
func (u *Unit) Config() Config { return u.cfg }

// FreeBlocks returns the number of unallocated blocks.
func (u *Unit) FreeBlocks() int {
	n := 0
	for _, o := range u.owner {
		if o == -1 {
			n++
		}
	}
	return n
}

// Alloc implements Allocator: a G_alloc_ex command.  The caller writes the
// command word, the unit executes in a deterministic 4 cycles, and the
// caller reads back the block address.
func (u *Unit) Alloc(c *rtos.TaskCtx, bytes int) (addr Addr, err error) {
	start := c.Now()
	defer func() {
		u.stats.MgmtCycles += c.Now() - start
		record(c, "alloc.alloc", start, bytes, addr, err)
	}()
	if bytes <= 0 {
		return 0, fmt.Errorf("socdmmu: invalid size %d", bytes)
	}
	c.BusWrite(1) // command word
	c.ChargeCompute(execCycles)
	c.BusRead(1) // result word
	blocks := (bytes + u.cfg.BlockBytes - 1) / u.cfg.BlockBytes
	// First-fit run of contiguous free blocks (the unit keeps a free-block
	// vector and finds the run combinationally).
	run := 0
	for i, o := range u.owner {
		if o == -1 {
			run++
			if run == blocks {
				first := i - blocks + 1
				pe := c.Task().PE
				for b := first; b <= i; b++ {
					u.owner[b] = pe
				}
				u.PerPE[pe] += blocks
				addr := Addr(first * u.cfg.BlockBytes)
				u.spans[addr] = blocks
				u.tags[addr] = c.Task().Name
				u.stats.Allocs++
				return addr, nil
			}
		} else {
			run = 0
		}
	}
	u.stats.FailedAllocs++
	return 0, fmt.Errorf("socdmmu: out of memory for %d blocks", blocks)
}

// Free implements Allocator: a G_dealloc command.
func (u *Unit) Free(c *rtos.TaskCtx, addr Addr) (err error) {
	start := c.Now()
	defer func() {
		u.stats.MgmtCycles += c.Now() - start
		record(c, "alloc.free", start, 0, addr, err)
	}()
	c.BusWrite(1)
	c.ChargeCompute(execCycles)
	if u.inj != nil && u.inj.DropFree(c.Task().Name, addr, c.Now()) {
		// The command is lost in flight: the caller believes it freed the
		// region, the allocation table never changes — a leak.
		u.stats.DroppedFrees++
		u.leaked[addr] = true
		record(c, "alloc.free.drop", start, 0, addr, nil)
		return nil
	}
	blocks, ok := u.spans[addr]
	if !ok {
		u.stats.BadFrees++
		block := int(addr) / u.cfg.BlockBytes
		if block >= 0 && block < len(u.owner) && u.owner[block] != -1 {
			return fmt.Errorf("%w: %#x is inside an allocation but not at its start", ErrBadFree, addr)
		}
		return fmt.Errorf("%w: %#x is not allocated", ErrBadFree, addr)
	}
	u.release(addr, blocks)
	u.stats.Frees++
	return nil
}

// release clears the allocation-table entries of the span starting at addr.
func (u *Unit) release(addr Addr, blocks int) {
	first := int(addr) / u.cfg.BlockBytes
	pe := u.owner[first]
	for b := first; b < first+blocks; b++ {
		u.owner[b] = -1
	}
	if pe >= 0 {
		u.PerPE[pe] -= blocks
	}
	delete(u.spans, addr)
	delete(u.tags, addr)
	delete(u.leaked, addr)
}

// SetInjector attaches a fault injector to the unit (nil detaches).
func (u *Unit) SetInjector(inj Injector) { u.inj = inj }

// Tag returns the task that owns the live allocation at addr ("" if none).
func (u *Unit) Tag(addr Addr) string { return u.tags[addr] }

// Leaked reports whether the live allocation at addr was leaked by an
// injected DropFree fault (the end-of-run leak check uses this to separate
// planned leaks from recovery bugs).
func (u *Unit) Leaked(addr Addr) bool { return u.leaked[addr] }

// Live returns the start addresses of every live allocation, sorted.
func (u *Unit) Live() []Addr {
	out := make([]Addr, 0, len(u.spans))
	for a := range u.spans {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ReclaimOwnedBy force-frees every live allocation tagged with the given
// task name — the recovery path for a killed task's memory.  It runs outside
// any task context (no bus traffic is charged; the caller's recovery proc
// accounts for its own time) and returns the reclaimed addresses, sorted.
func (u *Unit) ReclaimOwnedBy(task string) []Addr {
	var victims []Addr
	for a, t := range u.tags {
		if t == task {
			victims = append(victims, a)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	for _, a := range victims {
		u.release(a, u.spans[a])
		u.stats.Reclaims++
	}
	return victims
}

// Stats implements Allocator.
func (u *Unit) Stats() Stats { return u.stats }

// SoftwareAllocator is the conventional glibc-style malloc/free baseline: a
// first-fit free list with boundary tags, split on allocation and coalesce
// on free, all of it living in (uncached) shared memory.  Every list node
// touched costs shared-memory accesses, which is where the ~20-27% memory
// management share of Table 11 comes from.
type SoftwareAllocator struct {
	total int
	free  []span // sorted by address
	spans map[Addr]int
	stats Stats
	// accessesPerNode is the shared-memory touches per visited free-list
	// node (read header, read size, follow next pointer).
	accessesPerNode int
}

type span struct {
	addr Addr
	size int
}

// NewSoftwareAllocator builds a heap of the given byte size.
func NewSoftwareAllocator(totalBytes int) (*SoftwareAllocator, error) {
	if totalBytes <= 0 {
		return nil, fmt.Errorf("socdmmu: invalid heap size %d", totalBytes)
	}
	return &SoftwareAllocator{
		total:           totalBytes,
		free:            []span{{0, totalBytes}},
		spans:           map[Addr]int{},
		accessesPerNode: 3,
	}, nil
}

const headerAccesses = 12 // chunk header/footer writes + arena/bin bookkeeping

// Alloc implements Allocator with first-fit search.
func (a *SoftwareAllocator) Alloc(c *rtos.TaskCtx, bytes int) (addr Addr, err error) {
	start := c.Now()
	defer func() {
		a.stats.MgmtCycles += c.Now() - start
		record(c, "alloc.alloc", start, bytes, addr, err)
	}()
	if bytes <= 0 {
		return 0, fmt.Errorf("socdmmu: invalid size %d", bytes)
	}
	// Round to 16-byte chunks like a real malloc.
	size := (bytes + 15) &^ 15
	// The free-list walk and the claim happen atomically (the heap lock of a
	// real malloc): mutate first, then charge the cycles the walk cost.
	// Charging yields the simulated CPU, so it must not split the scan from
	// the claim or two PEs could claim the same chunk.
	visited := 0
	for i, s := range a.free {
		visited++
		if s.size >= size {
			addr := s.addr
			if s.size == size {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = span{s.addr + Addr(size), s.size - size}
			}
			a.spans[addr] = size
			a.stats.Allocs++
			c.ChargeSharedAccesses(visited*a.accessesPerNode + headerAccesses)
			return addr, nil
		}
	}
	a.stats.FailedAllocs++
	c.ChargeSharedAccesses(visited*a.accessesPerNode + headerAccesses)
	return 0, fmt.Errorf("socdmmu: malloc: out of memory for %d bytes", bytes)
}

// Free implements Allocator with address-ordered insert and coalescing.
func (a *SoftwareAllocator) Free(c *rtos.TaskCtx, addr Addr) (err error) {
	start := c.Now()
	defer func() {
		a.stats.MgmtCycles += c.Now() - start
		record(c, "alloc.free", start, 0, addr, err)
	}()
	size, ok := a.spans[addr]
	if !ok {
		a.stats.BadFrees++
		// Allocations are disjoint, so at most one span can contain addr;
		// the flag makes the scan independent of map iteration order.
		inside := false
		for s, sz := range a.spans {
			if addr > s && addr < s+Addr(sz) {
				inside = true
			}
		}
		if inside {
			return fmt.Errorf("%w: %#x is inside an allocation but not at its start", ErrBadFree, addr)
		}
		return fmt.Errorf("%w: %#x is not allocated", ErrBadFree, addr)
	}
	delete(a.spans, addr)
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr > addr })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{addr, size}
	// Coalesce with successor then predecessor.
	if i+1 < len(a.free) && a.free[i].addr+Addr(a.free[i].size) == a.free[i+1].addr {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].addr+Addr(a.free[i-1].size) == a.free[i].addr {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	a.stats.Frees++
	c.ChargeSharedAccesses((i+1)*a.accessesPerNode + headerAccesses)
	return nil
}

// Stats implements Allocator.
func (a *SoftwareAllocator) Stats() Stats { return a.stats }

// CheckInvariants verifies the free list is sorted, non-overlapping, fully
// coalesced and within the heap.  Used by property tests.
func (a *SoftwareAllocator) CheckInvariants() error {
	for i, s := range a.free {
		if s.size <= 0 {
			return fmt.Errorf("empty span at %d", i)
		}
		if int(s.addr)+s.size > a.total {
			return fmt.Errorf("span %d exceeds heap", i)
		}
		if i > 0 {
			prev := a.free[i-1]
			if prev.addr+Addr(prev.size) > s.addr {
				return fmt.Errorf("overlap between spans %d and %d", i-1, i)
			}
			if prev.addr+Addr(prev.size) == s.addr {
				return fmt.Errorf("uncoalesced spans %d and %d", i-1, i)
			}
		}
	}
	// Allocated spans must not overlap free spans.  The scan runs over
	// sorted addresses so a corrupt heap always yields the same error.
	addrs := make([]Addr, 0, len(a.spans))
	for addr := range a.spans {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		size := a.spans[addr]
		for _, s := range a.free {
			if addr < s.addr+Addr(s.size) && s.addr < addr+Addr(size) {
				return fmt.Errorf("allocation %#x overlaps free span %#x", addr, s.addr)
			}
		}
	}
	return nil
}

// SynthResult summarizes the generated SoCDMMU hardware.
type SynthResult struct {
	VerilogLines int
	AreaGates    int
}

// Synthesize generates the unit and returns the synthesis summary (the
// DX-Gt-style parameterized generation of Section 2.2).
func Synthesize(cfg Config) (SynthResult, error) {
	if err := cfg.Validate(); err != nil {
		return SynthResult{}, err
	}
	f, err := Generate(cfg)
	if err != nil {
		return SynthResult{}, err
	}
	return SynthResult{
		VerilogLines: verilog.CountLines(f.Emit()),
		AreaGates:    Netlist(cfg).AreaGates(),
	}, nil
}

// Netlist models the SoCDMMU: the allocation table (one owner entry per
// block), the first-fit scan logic, the per-PE address-conversion table and
// the command interface.
func Netlist(cfg Config) *gates.Netlist {
	blocks := cfg.Blocks()
	peBits := verilog.BitsFor(cfg.PEs) + 1 // owner id + valid

	var table gates.Netlist
	table.AddRegister(peBits)

	var scan gates.Netlist
	scan.AddPriorityEncoder(blocks) // free-run search
	scan.Add(gates.AND2, blocks)
	scan.Add(gates.OR2, blocks/2)

	var xlate gates.Netlist
	xlate.AddRegister(verilog.BitsFor(blocks)) // base register per PE
	xlate.AddComparator(verilog.BitsFor(blocks))
	xlate.AddMux(2, verilog.BitsFor(blocks))

	var iface gates.Netlist
	iface.AddRegister(32) // command register
	iface.AddRegister(32) // result register
	iface.Add(gates.NAND2, 50)
	iface.Add(gates.INV, 24)
	iface.Add(gates.DFFR, 6) // FSM

	var top gates.Netlist
	top.AddSub("alloc_table", &table, blocks)
	top.AddSub("scan", &scan, 1)
	top.AddSub("xlate", &xlate, cfg.PEs)
	top.AddSub("iface", &iface, 1)
	return &top
}

// Generate emits the SoCDMMU Verilog.
func Generate(cfg Config) (*verilog.File, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	blocks := cfg.Blocks()
	var f verilog.File
	f.Header = fmt.Sprintf("SoCDMMU: %d blocks of %d bytes for %d PEs (delta framework, DX-Gt style)",
		blocks, cfg.BlockBytes, cfg.PEs)
	top := f.Add(&verilog.Module{Name: "socdmmu", Comment: "SoC Dynamic Memory Management Unit"})
	top.AddPort("clk", verilog.Input, 1)
	top.AddPort("rst_n", verilog.Input, 1)
	top.AddPort("cmd", verilog.Input, 32)
	top.AddPort("cmd_valid", verilog.Input, 1)
	top.AddPort("pe", verilog.Input, verilog.BitsFor(cfg.PEs))
	top.AddOutputReg("result", 32)
	top.AddOutputReg("done", 1)
	top.AddReg("owner", blocks*(verilog.BitsFor(cfg.PEs)+1))
	top.AddReg("state", 3)
	top.AddWire("free_vec", blocks)
	for b := 0; b < blocks; b++ {
		top.AddAssign(fmt.Sprintf("free_vec[%d]", b),
			fmt.Sprintf("~owner[%d]", b*(verilog.BitsFor(cfg.PEs)+1)))
	}
	top.AddAlways("posedge clk or negedge rst_n",
		"if (!rst_n) begin state <= 3'd0; done <= 1'b0; end",
		"else case (state)",
		"  3'd0: if (cmd_valid) state <= 3'd1; // decode",
		"  3'd1: state <= 3'd2;                // scan free_vec",
		"  3'd2: state <= 3'd3;                // update alloc table",
		"  3'd3: begin done <= 1'b1; state <= 3'd0; end",
		"  default: state <= 3'd0;",
		"endcase")
	return &f, nil
}
