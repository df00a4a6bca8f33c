package app

import (
	"fmt"

	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/socdmmu"
)

// ParallelResult extends SplashResult with parallel-run measurements.
type ParallelResult struct {
	SplashResult
	PEs          int
	BarrierWaits int
}

// Speedup is sequential-cycles / parallel-cycles for the same problem: seq
// is RunRadix with the same allocator, one run of which serves every PE
// count.
func (r ParallelResult) Speedup(seq SplashResult) float64 {
	return float64(seq.TotalCycles) / float64(r.TotalCycles)
}

// RunRadixParallel runs the radix-sort benchmark split across `pes`
// processing elements with the true SPLASH-2 RADIX structure: per-PE local
// histograms, a barrier, a global prefix computed from all local counts,
// another barrier, then a parallel permutation into reserved offsets.  The
// allocator is shared (and is where SoCDMMU-vs-malloc contention shows up);
// bus contention between PEs emerges from the simulator.
func RunRadixParallel(mkAlloc func() socdmmu.Allocator, pes int, opts ...sim.Option) ParallelResult {
	if pes <= 0 || radixN%pes != 0 {
		panic(fmt.Sprintf("app: invalid PE count %d", pes))
	}
	alloc := mkAlloc()
	var verified bool

	s := sim.New(opts...)
	defer s.Close()
	k := rtos.NewKernel(s, pes)
	bar := k.NewBarrier("radix", pes)

	keys := radixKeys(parKey)
	tmp := make([]int, radixN)
	chunk := radixN / pes
	passes := 32 / radixBits

	// Shared per-pass state: local histograms and per-PE scatter offsets.
	locals := make([][]int, pes)
	offsets := make([][]int, pes)
	for pe := range locals {
		locals[pe] = make([]int, 1<<radixBits)
		offsets[pe] = make([]int, 1<<radixBits)
	}

	for pe := 0; pe < pes; pe++ {
		pe := pe
		k.CreateTask(fmt.Sprintf("radix.pe%d", pe), pe, 1, 0, func(c *rtos.TaskCtx) {
			kc := &kernelCost{c: c}
			h := &splashHeap{c: c, alloc: alloc}
			// Each rank allocates its key chunks and per-pass buckets.
			for i := 0; i < chunk/1024; i++ {
				h.get(1024 * 4)
			}
			lo, hi := pe*chunk, (pe+1)*chunk
			for pass := 0; pass < passes; pass++ {
				var bucketAddrs []socdmmu.Addr
				for b := 0; b < 80/pes; b++ {
					bucketAddrs = append(bucketAddrs, h.get(256))
				}
				shift := uint(pass * radixBits)
				// Phase 1: local histogram.
				cnt := locals[pe]
				for d := range cnt {
					cnt[d] = 0
				}
				for _, key := range keys[lo:hi] {
					cnt[(key>>shift)&0xff]++
				}
				kc.op(2 * chunk)
				kc.mem(2 * chunk)
				kc.flush()
				bar.Wait(c)
				// Phase 2: every rank derives its scatter offsets from all
				// local histograms (digit-major prefix sum).
				off := offsets[pe]
				pos := 0
				for d := 0; d < 1<<radixBits; d++ {
					for r := 0; r < pes; r++ {
						if r == pe {
							off[d] = pos
						}
						pos += locals[r][d]
					}
				}
				lookups := pes << radixBits // one per (digit, rank)
				kc.op(2 * lookups)
				kc.mem(lookups)
				kc.flush()
				bar.Wait(c)
				// Phase 3: scatter.
				for _, key := range keys[lo:hi] {
					d := (key >> shift) & 0xff
					tmp[off[d]] = key
					off[d]++
				}
				kc.op(2 * chunk)
				kc.mem(3 * chunk)
				kc.flush()
				bar.Wait(c)
				// Phase 4: PE0 swaps the buffers for everyone.
				if pe == 0 {
					keys, tmp = tmp, keys
				}
				bar.Wait(c)
				for _, a := range bucketAddrs {
					h.put(a)
				}
			}
			if pe == 0 {
				ref := radixParallelRef()
				verified = true
				for i := 0; i < radixN; i += 509 {
					if keys[i] != ref[i] {
						verified = false
					}
				}
			}
			h.putAll()
			kc.flush()
		})
	}
	total := s.Run()

	return ParallelResult{
		SplashResult: summarize("RADIX-parallel", alloc, total, verified),
		PEs:          pes,
		BarrierWaits: bar.Rounds,
	}
}
