// Surface-code families behind one decoder: the toric code needs a
// torus, but hardware is a plane. The planar code trades the torus for
// rough and smooth boundaries (error chains may end there, absorbed by
// a virtual boundary detector), and the rotated code shaves the layout
// down to d² data qubits — half the planar bill at equal distance.
// All three implement the same surface.Code contract, so the identical
// union-find machinery decodes them in 2D, over space-time volumes,
// and through streaming windows; only the detector graph changes.
package main

import (
	"fmt"

	"ftqc"
)

func main() {
	fmt.Println("== surface-code families: one contract, three layouts ==")

	fmt.Println("\nqubit overhead per distance (data + measure ancillas):")
	fmt.Printf("%-4s %-16s %-16s %-16s\n", "d", "toric (2d²)", "planar (d²+(d−1)²)", "rotated (d²)")
	for _, d := range []int{3, 5, 7, 9} {
		row := make([]string, 0, 3)
		for _, c := range []ftqc.SurfaceCode{ftqc.ToricCode(d), ftqc.PlanarCode(d), ftqc.RotatedCode(d)} {
			row = append(row, fmt.Sprintf("%d (+%d)", c.Qubits(), 2*c.Checks()))
		}
		fmt.Printf("%-4d %-16s %-16s %-16s\n", d, row[0], row[1], row[2])
	}

	const samples = 4000
	circuit := func(eps float64) ftqc.NoiseModel { return ftqc.CircuitModel(ftqc.UniformNoise(eps)) }
	fmt.Println("\n2D memory at p = 0.05 (perfect measurement, union-find):")
	fmt.Printf("%-10s %-12s %-12s %-12s\n", "family", "d=3", "d=5", "d=7")
	for _, family := range []func(int) ftqc.SurfaceCode{ftqc.ToricCode, ftqc.PlanarCode, ftqc.RotatedCode} {
		name := family(3).CodeName()
		fmt.Printf("%-10s", name)
		for _, d := range []int{3, 5, 7} {
			r, err := ftqc.SurfaceMemory(family(d), 0.05, samples, 11)
			if err != nil {
				panic(err)
			}
			fmt.Printf(" %-12.4e", r.FailRate())
		}
		fmt.Println()
	}

	fmt.Println("\ncircuit-level memory, T = d noisy extraction rounds (eps = 0.004):")
	fmt.Println("every family runs its own CNOT schedule; hook faults become diagonal")
	fmt.Println("edges, boundary-truncated where a qubit has a single reader")
	fmt.Printf("%-10s %-12s %-12s\n", "family", "d=3", "d=5")
	for _, family := range []func(int) ftqc.SurfaceCode{ftqc.ToricCode, ftqc.PlanarCode, ftqc.RotatedCode} {
		name := family(3).CodeName()
		fmt.Printf("%-10s", name)
		for _, d := range []int{3, 5} {
			r, err := ftqc.SpacetimeMemory(family(d), d, circuit(0.004), ftqc.ToricDecoderUnionFind, ftqc.DecodeOptions{}, samples, 13)
			if err != nil {
				panic(err)
			}
			fmt.Printf(" %-12.4e", r.FailRate())
		}
		fmt.Println()
	}

	fmt.Println("\nstreaming the rotated code (d = 5, eps = 0.003, T = 40 rounds,")
	fmt.Println("sliding window): open boundaries ground on the same virtual node")
	fmt.Println("the window already uses for its open future edge")
	r, err := ftqc.StreamingMemory(ftqc.RotatedCode(5), 40, circuit(0.003), 0, 0, ftqc.DecodeOptions{}, samples/4, 17)
	if err != nil {
		panic(err)
	}
	fmt.Printf("family=%s W=%d commit=%d: fail (any) %.4e over %d samples\n",
		r.Code, r.Window, r.Commit, r.FailRate(), r.Samples)
}
