// Toric memory: Kitaev's passive quantum memory (Preskill §7.1) — the
// logical error rate falls exponentially with the code distance below
// threshold, mirroring the e^{−mL} tunneling suppression. The union-find
// decoder (near-linear in the syndrome) carries the sweep out to L = 32,
// distances the exponential bitmask matcher could never reach; the
// polynomial exact matcher cross-checks the small sizes.
package main

import (
	"fmt"
	"math"

	"ftqc"
)

func main() {
	fmt.Println("== toric-code passive memory (§7.1) ==")
	const p = 0.04
	const samples = 20000
	fmt.Printf("flip probability p = %.2f per edge\n", p)
	fmt.Printf("%-6s %-10s %-14s %-14s\n", "L", "qubits", "union-find", "exact MWPM")
	prev := 0.0
	for _, l := range []int{3, 5, 7, 9, 13} {
		r := failRate(l, p, ftqc.ToricDecoderUnionFind, samples)
		ex := failRate(l, p, ftqc.ToricDecoderExact, samples)
		fmt.Printf("%-6d %-10d %-14.4e %-14.4e", l, ftqc.ToricCode(l).Qubits(), r, ex)
		if prev > 0 && r > 0 {
			fmt.Printf("   (×%.2f per step)", r/prev)
		}
		fmt.Println()
		prev = r
	}
	fmt.Println("\nlarge distances (union-find only — matching decoders are impractical here):")
	fmt.Printf("%-6s %-10s %-14s\n", "L", "qubits", "logical fail")
	for _, l := range []int{16, 24, 32} {
		fmt.Printf("%-6d %-10d %-14.4e\n", l, ftqc.ToricCode(l).Qubits(), failRate(l, p, ftqc.ToricDecoderUnionFind, samples/4))
	}
	fmt.Println("\ntunneling estimate e^{-mL} for comparison (m=1):")
	for _, l := range []int{3, 5, 7, 9} {
		fmt.Printf("  L=%d: %.2e\n", l, math.Exp(-float64(l)))
	}
	fmt.Println("\n'if the quasiparticles are kept far apart, the probability of an")
	fmt.Println(" error afflicting the encoded information will be extremely low'")
}

// failRate runs one passive-memory point (seed 7+L) and returns its
// logical failure rate.
func failRate(l int, p float64, dec ftqc.ToricDecoder, samples int) float64 {
	r, err := ftqc.ToricMemory(l, p, dec, samples, uint64(7+l))
	if err != nil {
		panic(err)
	}
	return r.FailRate()
}
