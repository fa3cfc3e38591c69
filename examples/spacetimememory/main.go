// Space-time memory: the toric code decoded the way real hardware must
// — with syndrome measurements that lie. T rounds of noisy extraction
// turn decoding into matching on a 3D space-time volume (time-like
// edges absorb measurement errors, weighted by log-likelihood), and the
// threshold drops from the ~10% of the perfect-measurement idealization
// to the few-percent sustained value, recovered here as the crossing of
// the L=4 and L=8 failure curves at p = q.
package main

import (
	"fmt"
	"math"

	"ftqc"
)

func main() {
	fmt.Println("== noisy syndrome extraction: 3D space-time decoding ==")
	const samples = 4000

	fmt.Println("\nperfect vs noisy measurements (L=6, T=6, p=0.02):")
	fmt.Printf("%-26s %-12s %-12s %-12s\n", "", "fail (any)", "bit-flip", "phase-flip")
	memory := func(rounds int, q float64, seed uint64) ftqc.SpacetimeResult {
		r, err := ftqc.SpacetimeMemory(ftqc.ToricCode(6), rounds, ftqc.PhenomenologicalModel(0.02, q, 0, 0), ftqc.ToricDecoderUnionFind, ftqc.DecodeOptions{}, samples, seed)
		if err != nil {
			panic(err)
		}
		return r
	}
	clean := memory(1, 0, 31)
	noisy := memory(6, 0.02, 32)
	fmt.Printf("%-26s %-12.4e %-12.4e %-12.4e\n", "q=0, one round (2D)", clean.FailRate(), clean.FailRateX(), clean.FailRateZ())
	fmt.Printf("%-26s %-12.4e %-12.4e %-12.4e\n", "q=p, six rounds (3D)", noisy.FailRate(), noisy.FailRateX(), noisy.FailRateZ())

	fmt.Println("\nsustained p=q sweep, rounds = L (union-find, weighted 3D graphs):")
	grid := []float64{0.01, 0.015, 0.02, 0.025, 0.03, 0.04, 0.05}
	phenom := func(p float64) ftqc.NoiseModel { return ftqc.PhenomenologicalModel(p, p, 0, 0) }
	cross, pts, err := ftqc.SustainedThreshold(4, 8, grid, phenom, ftqc.DecodeOptions{}, samples, 33)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-8s %-14s %-14s\n", "p=q", "L=4 (T=4)", "L=8 (T=8)")
	for _, pt := range pts {
		fmt.Printf("%-8.3f %-14.4e %-14.4e\n", pt.P, pt.Small.FailRate(), pt.Large.FailRate())
	}
	if math.IsNaN(cross) {
		fmt.Println("no crossing on this grid")
	} else {
		fmt.Printf("sustained threshold ≈ %.3f (perfect-measurement toric threshold is ~0.10)\n", cross)
	}

	fmt.Println("\n'quantum error correction works even when the syndrome")
	fmt.Println(" measurements themselves are faulty — if you repeat them'")
}
