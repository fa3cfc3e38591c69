package spacetime_test

import (
	"testing"

	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// The memory suites run the whole-volume driver, stream.VolumeMemory,
// which imports this package, so they live in the external test
// package. The toric suites sweep lattice sizes; these adapters name
// the L×L torus by its size and unwrap the constructor error for
// parameters the tests know are valid.

func toricMemory(l, rounds int, p, q float64, kind toric.DecoderKind, samples int, seed uint64) stream.Result {
	return mustMemory(stream.VolumeMemory(toric.Cached(l), rounds, spacetime.Phenomenological(p, q, 0, 0), kind, spacetime.DecodeOptions{}, samples, seed))
}

func toricCircuitMemory(l, rounds int, P noise.Params, kind toric.DecoderKind, samples int, seed uint64) stream.Result {
	return mustMemory(stream.VolumeMemory(toric.Cached(l), rounds, spacetime.Circuit(P), kind, spacetime.DecodeOptions{}, samples, seed))
}

func toricCircuitMemoryOpts(l, rounds int, P noise.Params, samples int, seed uint64, opts spacetime.DecodeOptions) (stream.Result, error) {
	return stream.VolumeMemory(toric.Cached(l), rounds, spacetime.Circuit(P), toric.DecoderUnionFind, opts, samples, seed)
}

// toricErasedMemory runs the phenomenological erasure channels through
// the whole-volume driver; aware = false is the erasure-blind control
// arm — identical noise, the locations withheld from the decoder.
func toricErasedMemory(l, rounds int, p, q, pe, qe float64, samples int, seed uint64, aware bool) stream.Result {
	m := spacetime.Phenomenological(p, q, pe, qe)
	return mustMemory(stream.VolumeMemory(toric.Cached(l), rounds, m, toric.DecoderUnionFind, spacetime.DecodeOptions{ErasureAware: aware}, samples, seed))
}

func mustMemory(r stream.Result, err error) stream.Result {
	if err != nil {
		panic(err)
	}
	return r
}

// wholeVolumeSession is a streaming session over a window that never
// slides on a rounds-round stream (W = max(rounds, 2), commit 1): its
// drains decode the closed volume, erasure planes and decode options
// included. The caller closes it.
func wholeVolumeSession(t *testing.T, code surface.Code, rounds int, m spacetime.Model) *stream.Session {
	t.Helper()
	wh, wv, wd := m.Weights(code.Distance(), rounds)
	win, err := stream.NewWindow(code, max(rounds, 2), 1, wh, wv, wd)
	if err != nil {
		t.Fatal(err)
	}
	return stream.NewSessionOn(nil, win)
}
