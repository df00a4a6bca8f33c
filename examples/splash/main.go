// Splash: run the three SPLASH-2-style kernels (blocked LU decomposition,
// complex 1D FFT, integer radix sort) on the simulated MPSoC with both
// allocators — the glibc-style software malloc/free and the SoCDMMU — and
// print the Table 11 / Table 12 comparison.
//
// Run with: go run ./examples/splash
package main

import (
	"fmt"

	"deltartos/internal/app"
	"deltartos/internal/sim"
	"deltartos/internal/socdmmu"
)

func main() {
	kernels := []func(func() socdmmu.Allocator, ...sim.Option) app.SplashResult{
		app.RunLU, app.RunFFT, app.RunRadix,
	}

	fmt.Printf("%-7s %-18s %10s %10s %8s %7s %9s\n",
		"kernel", "allocator", "total", "mgmt", "% mgmt", "allocs", "verified")
	var swTotals, hwTotals []app.SplashResult
	for _, run := range kernels {
		sw := run(app.NewGlibcAllocator)
		hw := run(app.NewSoCDMMUAllocator)
		swTotals = append(swTotals, sw)
		hwTotals = append(hwTotals, hw)
		for _, r := range []app.SplashResult{sw, hw} {
			fmt.Printf("%-7s %-18s %10d %10d %7.1f%% %7d %9v\n",
				r.Benchmark, r.Allocator, r.TotalCycles, r.MgmtCycles,
				r.MgmtPercent, r.Allocs, r.Verified)
		}
	}

	fmt.Println()
	fmt.Println("SoCDMMU effect (Table 12 shape):")
	for i := range swTotals {
		sw, hw := swTotals[i], hwTotals[i]
		mgmtRed := 100 * (1 - float64(hw.MgmtCycles)/float64(sw.MgmtCycles))
		exeRed := 100 * (1 - float64(hw.TotalCycles)/float64(sw.TotalCycles))
		fmt.Printf("  %-7s mgmt time reduced %5.1f%%, execution time reduced %5.1f%%\n",
			sw.Benchmark, mgmtRed, exeRed)
	}
	fmt.Println()
	fmt.Println("every kernel's numerical output is verified (LU: L*U==A spot checks;")
	fmt.Println("FFT: inverse-transform round trip; RADIX: against sort.Ints).")
}
