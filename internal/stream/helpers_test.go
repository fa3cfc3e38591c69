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

// volumeReference is the whole-volume reference of the erasure suites:
// it drains src over v's rounds and decodes every lane from scratch, one
// sector after the other (Volume.Decode). With ErasureAware the lane's
// canonical erased list (Volume.AppendErased) seeds the peeling pass; a
// correlated dual adds the counterparts of the lane's primal correction
// (Volume.Reprice). Returns the per-lane failure masks of the two
// sectors.
func volumeReference(v *spacetime.Volume, src spacetime.LayerFeed, opts spacetime.DecodeOptions) (failX, failZ bits.Vec) {
	code := v.Code()
	nq, nc, lanes := code.Qubits(), code.Checks(), src.Lanes()
	layers := [2][]bits.Vec{bits.NewVecs((v.T+1)*nc, lanes), bits.NewVecs((v.T+1)*nc, lanes)}
	eraH := bits.NewVecs(v.T*nq, lanes)
	lost := [2][]bits.Vec{bits.NewVecs(v.T*nc, lanes), bits.NewVecs(v.T*nc, lanes)}
	for t := 0; t < v.T; t++ {
		lx, lz := layers[0][t*nc:(t+1)*nc], layers[1][t*nc:(t+1)*nc]
		if src.Erasing() {
			src.NextLayersErased(lx, lz, eraH[t*nq:(t+1)*nq], lost[0][t*nc:(t+1)*nc], lost[1][t*nc:(t+1)*nc])
		} else {
			src.NextLayers(lx, lz)
		}
	}
	src.CloseLayers(layers[0][v.T*nc:], layers[1][v.T*nc:])
	par := [2][2]bits.Vec{{bits.NewVec(lanes), bits.NewVec(lanes)}, {bits.NewVec(lanes), bits.NewVec(lanes)}}
	src.Windings(par[0][0], par[0][1], par[1][0], par[1][1])
	var erased [2][][]int
	for s := range erased {
		erased[s] = make([][]int, lanes)
		if opts.ErasureAware {
			v.AppendErased(erased[s], func(t int) ([]bits.Vec, []bits.Vec) {
				return eraH[t*nq : (t+1)*nq], lost[s][t*nc : (t+1)*nc]
			})
		}
	}
	uf := decoder.NewUnionFind(v.Graph())
	mask := bits.NewVec(v.Graph().Edges())
	fail := [2]bits.Vec{bits.NewVec(lanes), bits.NewVec(lanes)}
	for lane := range lanes {
		var primal []int32 // the primal correction's edges, which a correlated dual reprices from
		for s, dual := range [2]bool{false, true} {
			var defects []int
			for i, plane := range layers[s] {
				if plane.Get(lane) {
					defects = append(defects, i)
				}
			}
			era := erased[s][lane]
			switch {
			case dual && opts.Correlated:
				era = v.Reprice(era, primal, mask)
			case opts.Correlated && len(defects) > 0:
				primal = uf.AppendCorrection(nil, defects, era)
			}
			c1, c2 := code.LogicalParity(dual, v.Decode(defects, era, toric.DecoderUnionFind, dual))
			if par[s][0].Get(lane) != c1 || par[s][1].Get(lane) != c2 {
				fail[s].Set(lane, true)
			}
		}
	}
	return fail[0], fail[1]
}
