package stream

import (
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// The golden frame test pins what a streaming decoder commits — both
// sectors' frames after every slide and after Finish, plus the
// Committed, Slides and DefectsObserved counters — on fixed seeded
// streams, 64 lanes each. The constants were recorded from the
// retained-forest slide (guarded decode, cluster cache, release waves)
// before it was deleted, so they are the bit-identity contract every
// later slide path has to reproduce: circuit and phenomenological
// windows, an open-boundary code, a stream quiet enough to slide whole
// silent windows, and erasure-fed and correlated slides.

// frameDigest is an order-sensitive FNV-1a over 64-bit words.
type frameDigest uint64

func (h *frameDigest) add(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= uint64(byte(v >> (8 * i)))
		x *= 1099511628211
	}
	*h = frameDigest(x)
}

// addDecoder folds the decoder's committed frames and counters.
func (h *frameDigest) addDecoder(d *Decoder) {
	corrX, corrZ := d.Corrections()
	for lane := 0; lane < d.lanes; lane++ {
		for _, v := range [2]bits.Vec{corrX[lane], corrZ[lane]} {
			for i := 0; i < v.Words(); i++ {
				h.add(v.Word(i))
			}
		}
	}
	h.add(uint64(d.Committed()))
	h.add(uint64(d.Slides()))
	h.add(d.DefectsObserved())
}

type goldenStream struct {
	name      string
	code      surface.Code
	circuit   bool    // circuit-level source and window (weights from WeightsCircuit)
	eps, leak float64 // eps is p = q for phenomenological streams
	opts      spacetime.DecodeOptions
	erased    bool // feed through PushErased from an erasure-harvesting source
	w, c, t   int
	seed      uint64

	digest uint64
	skips  int // sector slides that found a silent window
}

const goldenLanes = 64

func TestGoldenFrames(t *testing.T) {
	cases := []goldenStream{
		{name: "toric8-circuit-0.003", code: toric.Cached(8), circuit: true, eps: 0.003, w: 16, c: 8, t: 64, seed: 0x601d01,
			digest: 0x6623eb676255bbb1, skips: 0},
		{name: "toric8-circuit-0.006", code: toric.Cached(8), circuit: true, eps: 0.006, w: 16, c: 8, t: 64, seed: 0x601d02,
			digest: 0x608f3a2b8600e8a1, skips: 0},
		{name: "rotated5-circuit", code: surface.Rotated(5), circuit: true, eps: 0.004, w: 10, c: 5, t: 30, seed: 0x601d03,
			digest: 0x7d9913f6a7838165, skips: 0},
		{name: "toric6-phenom-0.02", code: toric.Cached(6), eps: 0.02, w: 12, c: 6, t: 48, seed: 0x601d04,
			digest: 0xbd02b6156031e793, skips: 0},
		{name: "toric3-quiet-0.0005", code: toric.Cached(3), eps: 0.0005, w: 6, c: 3, t: 900, seed: 0x601d05,
			digest: 0xcbc8cc632147dac7, skips: 3},
		{name: "toric6-erased-leak-0.01", code: toric.Cached(6), circuit: true, eps: 0.004, leak: 0.01, erased: true,
			opts: spacetime.DecodeOptions{ErasureAware: true}, w: 12, c: 6, t: 36, seed: 0x601d06,
			digest: 0x2527c404bcb51a13, skips: 0},
		{name: "toric6-erased-leak-0.0001", code: toric.Cached(6), circuit: true, eps: 0.004, leak: 0.0001, erased: true,
			opts: spacetime.DecodeOptions{ErasureAware: true}, w: 12, c: 6, t: 36, seed: 0x601d09,
			digest: 0x1840818dd56a1456, skips: 0},
		{name: "toric4-erased-correlated", code: toric.Cached(4), circuit: true, eps: 0.005, leak: 0.008, erased: true,
			opts: spacetime.DecodeOptions{ErasureAware: true, Correlated: true}, w: 8, c: 4, t: 24, seed: 0x601d07,
			digest: 0x750f265f2b5004e0, skips: 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			digest, skips := runGoldenStream(t, c)
			if digest != c.digest || skips != c.skips {
				t.Errorf("got digest: %#x, skips: %d; pinned digest: %#x, skips: %d", digest, skips, c.digest, c.skips)
			}
		})
	}
}

// runGoldenStream drives one seeded stream and returns its digest and
// the number of sector slides whose window was silent in every lane.
func runGoldenStream(t *testing.T, c goldenStream) (uint64, int) {
	t.Helper()
	d0 := c.code.Distance()
	P := noise.Uniform(c.eps) // circuit streams only
	P.Leak = c.leak
	var s *Session
	if c.circuit {
		wh, wv, wd := spacetime.WeightsCircuit(P, d0, c.w)
		s = mustCodeCircuitSession(t, c.code, c.w, c.c, wh, wv, wd)
	} else {
		wh, wv := spacetime.Weights(c.eps, c.eps, d0, c.t)
		s = mustCodeSession(t, c.code, c.w, c.c, wh, wv)
	}
	defer s.Close()
	smp := frame.NewAggregateSampler(c.seed, 1)
	var src spacetime.LayerFeed
	switch {
	case c.erased, c.circuit:
		src = surface.NewCircuitSource(c.code, P, goldenLanes, smp)
	default:
		src = surface.NewLayerSource(c.code, c.eps, c.eps, goldenLanes, smp)
	}
	nc, nq := c.code.Checks(), c.code.Qubits()
	layerX, layerZ := bits.NewVecs(nc, goldenLanes), bits.NewVecs(nc, goldenLanes)
	eraH := bits.NewVecs(nq, goldenLanes)
	lostX, lostZ := bits.NewVecs(nc, goldenLanes), bits.NewVecs(nc, goldenLanes)

	d := s.NewDecoderOpts(goldenLanes, c.opts)
	h := frameDigest(14695981039346656037)
	skips := 0
	for r := 0; r < c.t; r++ {
		if d.Filled() == d.win.W {
			// This push slides: count the sectors whose window is silent.
			for _, sec := range [2]*sectorState{&d.sx, &d.sz} {
				if silentWindow(d, sec) {
					skips++
				}
			}
		}
		slides := d.Slides()
		if c.erased {
			src.NextLayersErased(layerX, layerZ, eraH, lostX, lostZ)
			d.PushErased(layerX, layerZ, eraH, lostX, lostZ)
		} else {
			src.NextLayers(layerX, layerZ)
			d.Push(layerX, layerZ)
		}
		if d.Slides() != slides {
			h.addDecoder(d)
		}
	}
	src.CloseLayers(layerX, layerZ)
	d.Finish(layerX, layerZ)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Committed() != c.t {
		t.Fatalf("committed %d of %d rounds", d.Committed(), c.t)
	}
	h.addDecoder(d)
	return uint64(h), skips
}

// TestGoldenStreamCounts pins the failure counts of the streaming
// memory entry points — phenomenological and circuit feeds, the
// erasure-aware, blind and correlated drains — on recorded seeds, every
// stream long enough to slide. The constants were recorded before the
// memory drivers were merged into one; a change that moves one of them
// has changed which shots fail. Fix the change, never the constant.
func TestGoldenStreamCounts(t *testing.T) {
	const samples = 1000
	leaky := noise.Uniform(0.004)
	leaky.Leak = 0.01
	circuit := noise.Uniform(0.004)
	opts := func(aware, corr bool) spacetime.DecodeOptions {
		return spacetime.DecodeOptions{ErasureAware: aware, Correlated: corr}
	}
	for _, tc := range []struct {
		name         string
		run          func() (Result, error)
		fx, fz, fail int
	}{
		{"CodeMemory/toric4", func() (Result, error) {
			return Memory(toric.Cached(4), 12, spacetime.Phenomenological(0.03, 0.03, 0, 0), 0, 0, spacetime.DecodeOptions{}, samples, 1901)
		}, 426, 412, 659},
		{"CodeMemory/rotated5", func() (Result, error) {
			return Memory(surface.Rotated(5), 15, spacetime.Phenomenological(0.02, 0.02, 0, 0), 0, 0, spacetime.DecodeOptions{}, samples, 1902)
		}, 133, 147, 256},
		{"CodeCircuitMemory/toric4", func() (Result, error) {
			return Memory(toric.Cached(4), 12, spacetime.Circuit(circuit), 0, 0, spacetime.DecodeOptions{}, samples, 1903)
		}, 86, 73, 146},
		{"CodeCircuitMemory/planar5", func() (Result, error) {
			return Memory(surface.Planar(5), 15, spacetime.Circuit(circuit), 0, 0, spacetime.DecodeOptions{}, samples, 1904)
		}, 23, 21, 44},
		{"CodeCircuitMemoryOpts/toric4/blind", func() (Result, error) {
			return Memory(toric.Cached(4), 12, spacetime.Circuit(leaky), 0, 0, opts(false, false), samples, 1905)
		}, 489, 504, 745},
		{"CodeCircuitMemoryOpts/toric4/aware", func() (Result, error) {
			return Memory(toric.Cached(4), 12, spacetime.Circuit(leaky), 0, 0, opts(true, false), samples, 1905)
		}, 322, 314, 516},
		{"CodeCircuitMemoryOpts/toric4/correlated", func() (Result, error) {
			return Memory(toric.Cached(4), 12, spacetime.Circuit(leaky), 0, 0, opts(false, true), samples, 1905)
		}, 489, 447, 706},
		{"CodeCircuitMemoryOpts/rotated5/aware", func() (Result, error) {
			return Memory(surface.Rotated(5), 15, spacetime.Circuit(leaky), 0, 0, opts(true, false), samples, 1906)
		}, 128, 136, 243},
	} {
		r, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.FailX != tc.fx || r.FailZ != tc.fz || r.Failures != tc.fail {
			t.Errorf("%s: FailX/FailZ/Failures = %d / %d / %d, recorded %d / %d / %d",
				tc.name, r.FailX, r.FailZ, r.Failures, tc.fx, tc.fz, tc.fail)
		}
	}
}
