// Streaming memory: decoding forever in constant space. The space-time
// experiment (examples/spacetimememory) materializes all T rounds
// before decoding, so holding a qubit longer costs more memory — a real
// quantum memory cannot work that way. Here the decoder sees syndrome
// layers as they arrive, decodes a sliding W-round window through a
// long-lived worker-pool service, commits corrections behind the
// window into a running Pauli frame, and keeps only O(L²·W) bits per
// shot no matter how long the memory runs. A 10,000-round hold costs
// the same resident footprint as a 100-round one.
package main

import (
	"fmt"

	"ftqc"
)

func main() {
	fmt.Println("== streaming windowed decoding: sustained operation ==")
	const samples = 4000

	fmt.Println("\nwindowed vs whole-volume decode (L=4, T=16, p=q=0.02):")
	fmt.Printf("%-34s %-12s %-12s %-12s\n", "", "fail (any)", "bit-flip", "phase-flip")
	l4 := ftqc.ToricCode(4)
	phenom := func(p float64) ftqc.NoiseModel { return ftqc.PhenomenologicalModel(p, p, 0, 0) }
	vol, err := ftqc.SpacetimeMemory(l4, 16, phenom(0.02), ftqc.ToricDecoderUnionFind, ftqc.DecodeOptions{}, samples, 41)
	if err != nil {
		panic(err)
	}
	str, err := ftqc.StreamingMemory(l4, 16, phenom(0.02), 0, 0, ftqc.DecodeOptions{}, samples, 42)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-34s %-12.4e %-12.4e %-12.4e\n", "whole volume (17 layers at once)", vol.FailRate(), vol.FailRateX(), vol.FailRateZ())
	fmt.Printf("%-34s %-12.4e %-12.4e %-12.4e\n",
		fmt.Sprintf("window W=%d, commit %d (slides)", str.Window, str.Commit), str.FailRate(), str.FailRateX(), str.FailRateZ())

	fmt.Println("\nthe window height is a latency/accuracy knob (L=4, T=16, p=q=0.02):")
	fmt.Printf("%-10s %-10s %-12s\n", "window", "commit", "fail (any)")
	for _, w := range []int{2, 4, 8, 12} {
		r, err := ftqc.StreamingMemory(l4, 16, phenom(0.02), w, w/2, ftqc.DecodeOptions{}, samples, 43)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10d %-10d %-12.4e\n", r.Window, r.Commit, r.FailRate())
	}

	fmt.Println("\nholding the memory 16× longer (L=4, p=q=0.015, W=8):")
	fmt.Printf("%-10s %-14s %-18s\n", "rounds", "fail (any)", "fail per round")
	for _, rounds := range []int{16, 64, 256} {
		r, err := ftqc.StreamingMemory(l4, rounds, phenom(0.015), 8, 4, ftqc.DecodeOptions{}, samples, 44)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10d %-14.4e %-18.4e\n", rounds, r.FailRate(), r.FailRate()/float64(rounds))
	}
	fmt.Println("(the failure rate per round is the sustained figure of merit; the")
	fmt.Println(" decoder's resident window is identical for every row)")

	fmt.Println("\nsustained p=q threshold measured in streaming operation (T=4L, W=2L):")
	grid := []float64{0.01, 0.015, 0.02, 0.025, 0.03, 0.04}
	cross, pts := ftqc.StreamingSustainedThreshold(3, 5, grid, samples, 45)
	fmt.Printf("%-8s %-14s %-14s\n", "p=q", "L=3 (T=12)", "L=5 (T=20)")
	for _, pt := range pts {
		fmt.Printf("%-8.3f %-14.4e %-14.4e\n", pt.P, pt.Small.FailRate(), pt.Large.FailRate())
	}
	fmt.Printf("streaming sustained threshold ≈ %.3f\n", cross)

	fmt.Println("\n'a fault-tolerant memory must decode its syndrome stream in real")
	fmt.Println(" time, with bounded lag and bounded memory — the window does both'")
}
