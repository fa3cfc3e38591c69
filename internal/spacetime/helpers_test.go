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
	return mustMemory(Memory(toric.Cached(l), rounds, Phenomenological(p, q, 0, 0), kind, DecodeOptions{}, samples, seed))
}

func toricCircuitMemory(l, rounds int, P noise.Params, kind toric.DecoderKind, samples int, seed uint64) Result {
	return mustMemory(Memory(toric.Cached(l), rounds, Circuit(P), kind, DecodeOptions{}, samples, seed))
}

func toricCircuitMemoryOpts(l, rounds int, P noise.Params, samples int, seed uint64, opts DecodeOptions) (Result, error) {
	return Memory(toric.Cached(l), rounds, Circuit(P), toric.DecoderUnionFind, opts, samples, seed)
}

// toricErasedMemory runs the phenomenological erasure channels on the
// erased drain; aware = false is the erasure-blind control arm —
// identical noise, the locations withheld from the decoder.
func toricErasedMemory(l, rounds int, p, q, pe, qe float64, samples int, seed uint64, aware bool) Result {
	m := Phenomenological(p, q, pe, qe)
	return mustMemory(Memory(toric.Cached(l), rounds, m, toric.DecoderUnionFind, DecodeOptions{ErasureAware: aware}, samples, seed))
}

func mustMemory(r Result, err error) Result {
	if err != nil {
		panic(err)
	}
	return r
}

// phenomVolume is the volume a phenomenological Memory decodes over:
// weights derived from the physical rates.
func phenomVolume(code surface.Code, rounds int, p, q float64) *Volume {
	wh, wv, wd := Phenomenological(p, q, 0, 0).Weights(code.Distance(), rounds)
	return NewVolume(code, rounds, wh, wv, wd)
}
