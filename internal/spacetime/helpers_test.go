package spacetime

import (
	"ftqc/internal/noise"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// The toric suites sweep lattice sizes; these adapters name the L×L
// torus by its size and unwrap the constructor error for parameters the
// tests know are valid.

func toricMemory(l, rounds int, p, q float64, kind toric.DecoderKind, samples int, seed uint64) Result {
	r, err := CodeMemory(toric.Cached(l), rounds, p, q, kind, samples, seed)
	if err != nil {
		panic(err)
	}
	return r
}

func toricCircuitMemory(l, rounds int, P noise.Params, kind toric.DecoderKind, samples int, seed uint64) Result {
	r, err := CodeCircuitMemory(toric.Cached(l), rounds, P, kind, samples, seed)
	if err != nil {
		panic(err)
	}
	return r
}

func toricCircuitMemoryOpts(l, rounds int, P noise.Params, samples int, seed uint64, opts DecodeOptions) (Result, error) {
	return CodeCircuitMemoryOpts(toric.Cached(l), rounds, P, samples, seed, opts)
}

// phenomVolume is the volume CodeMemory decodes over: weights derived
// from the physical rates.
func phenomVolume(code surface.Code, rounds int, p, q float64) *Volume {
	wh, wv := Weights(p, q, code.Distance(), rounds)
	return NewCodeVolume(code, rounds, wh, wv)
}
