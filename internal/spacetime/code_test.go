package spacetime

// Whole-volume decoding for the open-boundary families through the
// public memory entry points, and the feed/volume compatibility guards.

import (
	"testing"

	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

func TestCodeMemoryEntryPoints(t *testing.T) {
	for _, code := range []surface.Code{surface.Planar(3), surface.Rotated(3)} {
		r, err := CodeMemory(code, 4, 0, 0, toric.DecoderUnionFind, 256, 3)
		if err != nil || r.Failures != 0 {
			t.Errorf("%s: %d failures at p=0 (err %v)", code.CodeName(), r.Failures, err)
		}
		rc, err := CodeCircuitMemory(code, 4, noise.Params{}, toric.DecoderUnionFind, 256, 3)
		if err != nil || rc.Failures != 0 {
			t.Errorf("%s circuit: %d failures at P=0 (err %v)", code.CodeName(), rc.Failures, err)
		}
	}
	a, _ := CodeCircuitMemory(surface.Rotated(3), 3, noise.Uniform(0.006), toric.DecoderUnionFind, 2048, 9)
	b, _ := CodeCircuitMemory(surface.Rotated(3), 3, noise.Uniform(0.006), toric.DecoderUnionFind, 2048, 9)
	if a != b {
		t.Errorf("rotated circuit memory not deterministic: %+v vs %+v", a, b)
	}
	if a.Failures == 0 {
		t.Errorf("rotated d=3 at eps=0.006: no failures in %d samples — detector wiring suspect", a.Samples)
	}
}

// TestVolumeFeedGuards pins the cross-wiring panics: a code volume
// rejects feeds of another family, schedule or distance.
func TestVolumeFeedGuards(t *testing.T) {
	planarVol := phenomVolume(surface.Planar(3), 3, 0.01, 0.01)
	expectPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	expectPanic("family mismatch", func() {
		src := surface.NewLayerSource(surface.Rotated(3), 0.01, 0.01, 8, frame.NewAggregateSampler(1, 0))
		planarVol.BatchMemoryFrom(src, toric.DecoderUnionFind)
	})
	expectPanic("toric feed into open volume", func() {
		src := surface.NewLayerSource(toric.Cached(3), 0.01, 0.01, 8, frame.NewAggregateSampler(1, 0))
		planarVol.BatchMemoryFrom(src, toric.DecoderUnionFind)
	})
	expectPanic("schedule mismatch", func() {
		src := surface.NewCircuitSource(toric.HookParallel(3), noise.Uniform(0.01), 8, frame.NewAggregateSampler(1, 0))
		NewCodeCircuitVolume(toric.Cached(3), 3, 1, 1, 1).BatchMemoryFrom(src, toric.DecoderUnionFind)
	})
	expectPanic("distance mismatch", func() {
		src := surface.NewLayerSource(surface.Planar(4), 0.01, 0.01, 8, frame.NewAggregateSampler(1, 0))
		planarVol.BatchMemoryFrom(src, toric.DecoderUnionFind)
	})
	expectPanic("exact matching on an open code", func() {
		planarVol.Decode([]int{0, 1}, toric.DecoderExact, false)
	})
}

// TestMemoryEntryPointErrors pins the constructor-error gate: a nil
// code, an empty horizon, an empty sample, or a decoder the code cannot
// run is an error from every volume experiment, never a panic or a NaN
// rate.
func TestMemoryEntryPointErrors(t *testing.T) {
	const uf, exact = toric.DecoderUnionFind, toric.DecoderExact
	P := noise.Uniform(0.004)
	for _, tc := range []struct {
		name            string
		code            surface.Code
		rounds, samples int
		kind            toric.DecoderKind
	}{
		{"nil code", nil, 3, 64, uf},
		{"no rounds", toric.Cached(3), 0, 64, uf},
		{"no samples", toric.Cached(3), 3, 0, uf},
		{"negative samples", toric.Cached(3), 3, -5, uf},
		{"exact on an open code", surface.Planar(3), 3, 64, exact},
		{"exact on a schedule override", toric.HookParallel(3), 3, 64, exact},
	} {
		if _, err := CodeMemory(tc.code, tc.rounds, 0.01, 0.01, tc.kind, tc.samples, 1); err == nil {
			t.Errorf("%s: CodeMemory returned no error", tc.name)
		}
		if _, err := CodeCircuitMemory(tc.code, tc.rounds, P, tc.kind, tc.samples, 1); err == nil {
			t.Errorf("%s: CodeCircuitMemory returned no error", tc.name)
		}
		if tc.kind == uf {
			if _, err := CodeCircuitMemoryOpts(tc.code, tc.rounds, P, tc.samples, 1, DecodeOptions{}); err == nil {
				t.Errorf("%s: CodeCircuitMemoryOpts returned no error", tc.name)
			}
		}
	}
}
