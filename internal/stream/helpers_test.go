package stream

import (
	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// The toric suites sweep lattice sizes; these adapters name the L×L
// torus by its size, so a table row stays (l, window, commit, ...).

func toricLayers(l int, p, q float64, lanes int, smp frame.Sampler) *surface.LayerSource {
	return surface.NewLayerSource(toric.Cached(l), p, q, lanes, smp)
}

func toricCircuit(l int, P noise.Params, lanes int, smp frame.Sampler) *surface.CircuitSource {
	return surface.NewCircuitSource(toric.Cached(l), P, lanes, smp)
}

func toricSession(l, window, commit, wh, wv int) (*Session, error) {
	return NewCodeSession(toric.Cached(l), window, commit, wh, wv)
}

func toricCircuitSession(l, window, commit, wh, wv, wd int) (*Session, error) {
	return NewCodeCircuitSession(toric.Cached(l), window, commit, wh, wv, wd)
}

func toricSessionOn(pool *decoder.Service, l, window, commit, wh, wv int) (*Session, error) {
	win, err := NewWindow(toric.Cached(l), window, commit, wh, wv, 0)
	if err != nil {
		return nil, err
	}
	return NewSessionOn(pool, win), nil
}

func toricCircuitSessionOn(pool *decoder.Service, l, window, commit, wh, wv, wd int) (*Session, error) {
	win, err := NewWindow(toric.Cached(l), window, commit, wh, wv, wd)
	if err != nil {
		return nil, err
	}
	return NewSessionOn(pool, win), nil
}

func toricMemory(l, rounds int, p, q float64, window, commit, samples int, seed uint64) (Result, error) {
	return Memory(toric.Cached(l), rounds, spacetime.Phenomenological(p, q, 0, 0), window, commit, spacetime.DecodeOptions{}, samples, seed)
}

func toricCircuitMemory(l, rounds int, P noise.Params, window, commit, samples int, seed uint64) (Result, error) {
	return Memory(toric.Cached(l), rounds, spacetime.Circuit(P), window, commit, spacetime.DecodeOptions{}, samples, seed)
}

func toricCircuitMemoryOpts(l, rounds int, P noise.Params, window, commit, samples int, seed uint64, opts spacetime.DecodeOptions) (Result, error) {
	return Memory(toric.Cached(l), rounds, spacetime.Circuit(P), window, commit, opts, samples, seed)
}

// batchMemory is the phenomenological BatchMemoryFrom of a toric
// session.
func batchMemory(s *Session, rounds int, p, q float64, lanes int, smp frame.Sampler) (failX, failZ bits.Vec) {
	return s.BatchMemoryFrom(surface.NewLayerSource(s.win.Code(), p, q, lanes, smp), rounds, spacetime.DecodeOptions{})
}
