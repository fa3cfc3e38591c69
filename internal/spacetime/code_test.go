package spacetime_test

// Whole-volume decoding for the open-boundary families through the
// public memory entry points, and the feed/volume compatibility guards.

import (
	"testing"

	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

func TestCodeMemoryEntryPoints(t *testing.T) {
	for _, code := range []surface.Code{surface.Planar(3), surface.Rotated(3)} {
		r, err := stream.VolumeMemory(code, 4, spacetime.Phenomenological(0, 0, 0, 0), toric.DecoderUnionFind, spacetime.DecodeOptions{}, 256, 3)
		if err != nil || r.Failures != 0 {
			t.Errorf("%s: %d failures at p=0 (err %v)", code.CodeName(), r.Failures, err)
		}
		rc, err := stream.VolumeMemory(code, 4, spacetime.Circuit(noise.Params{}), toric.DecoderUnionFind, spacetime.DecodeOptions{}, 256, 3)
		if err != nil || rc.Failures != 0 {
			t.Errorf("%s circuit: %d failures at P=0 (err %v)", code.CodeName(), rc.Failures, err)
		}
	}
	rotated := func() stream.Result {
		return mustMemory(stream.VolumeMemory(surface.Rotated(3), 3, spacetime.Circuit(noise.Uniform(0.006)), toric.DecoderUnionFind, spacetime.DecodeOptions{}, 2048, 9))
	}
	a, b := rotated(), rotated()
	if a != b {
		t.Errorf("rotated circuit memory not deterministic: %+v vs %+v", a, b)
	}
	if a.Failures == 0 {
		t.Errorf("rotated d=3 at eps=0.006: no failures in %d samples — detector wiring suspect", a.Samples)
	}
}

// TestLeakyCircuitModelReturnsCounts: a circuit model with a Leak
// channel and no decode options is an erasure model, so VolumeMemory
// drains it through the erased round (blind) and returns counts — never the
// plain source's leak panic inside a chunk worker, where no caller can
// recover it.
func TestLeakyCircuitModelReturnsCounts(t *testing.T) {
	P := noise.Uniform(0.004)
	P.Leak = 0.01
	r, err := stream.VolumeMemory(toric.Cached(4), 4, spacetime.Circuit(P), toric.DecoderUnionFind, spacetime.DecodeOptions{}, 256, 11)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != 256 || r.Pe != P.Leak || r.Failures == 0 {
		t.Fatalf("leaky circuit memory: %+v", r)
	}
}

// TestVolumeFeedGuards pins the cross-wiring panics: a code volume
// rejects feeds of another family, schedule or distance.
func TestVolumeFeedGuards(t *testing.T) {
	wh, wv, _ := spacetime.Phenomenological(0.01, 0.01, 0, 0).Weights(3, 3)
	planarVol := spacetime.NewVolume(surface.Planar(3), 3, wh, wv, 0)
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
		spacetime.NewVolume(toric.Cached(3), 3, 1, 1, 1).BatchMemoryFrom(src, toric.DecoderUnionFind)
	})
	expectPanic("distance mismatch", func() {
		src := surface.NewLayerSource(surface.Planar(4), 0.01, 0.01, 8, frame.NewAggregateSampler(1, 0))
		planarVol.BatchMemoryFrom(src, toric.DecoderUnionFind)
	})
	expectPanic("exact matching on an open code", func() {
		planarVol.Decode([]int{0, 1}, nil, toric.DecoderExact, false)
	})
}

// TestMemoryEntryPointErrors pins the constructor-error gate: a nil
// code, an empty horizon, an empty sample, or a decoder the code or the
// drain cannot run is an error under every model, never a panic or a
// NaN rate.
func TestMemoryEntryPointErrors(t *testing.T) {
	const uf, exact = toric.DecoderUnionFind, toric.DecoderExact
	P := noise.Uniform(0.004)
	models := []struct {
		name string
		m    spacetime.Model
		opts spacetime.DecodeOptions
	}{
		{"phenomenological", spacetime.Phenomenological(0.01, 0.01, 0, 0), spacetime.DecodeOptions{}},
		{"circuit", spacetime.Circuit(P), spacetime.DecodeOptions{}},
		{"circuit with options", spacetime.Circuit(P), spacetime.DecodeOptions{Correlated: true}},
		{"phenomenological erasure", spacetime.Phenomenological(0.01, 0.01, 0.05, 0.05), spacetime.DecodeOptions{ErasureAware: true}},
	}
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
		for _, md := range models {
			if _, err := stream.VolumeMemory(tc.code, tc.rounds, md.m, tc.kind, md.opts, tc.samples, 1); err == nil {
				t.Errorf("%s: %s VolumeMemory returned no error", tc.name, md.name)
			}
		}
	}
	// Erasure channels and decode options decode with union-find only:
	// exact matching on them is an error even on the torus, where a
	// plain run accepts it.
	for _, md := range models[2:] {
		if _, err := stream.VolumeMemory(toric.Cached(3), 3, md.m, exact, md.opts, 64, 1); err == nil {
			t.Errorf("exact with erasure or options: %s VolumeMemory returned no error", md.name)
		}
	}
	for _, md := range models[:2] {
		if _, err := stream.VolumeMemory(toric.Cached(3), 3, md.m, exact, md.opts, 64, 1); err != nil {
			t.Errorf("exact on a plain run: %s VolumeMemory: %v", md.name, err)
		}
	}
}

// TestMemoryRejectsUnknownDecoder: a kind that names no decoder is an
// error on every model, never a run that falls back to some decoder —
// the 2D driver (toric.MemoryExperiment) and the volume driver must not
// each pick a different one.
func TestMemoryRejectsUnknownDecoder(t *testing.T) {
	for _, kind := range []toric.DecoderKind{0, 3, -1} {
		for _, m := range []spacetime.Model{spacetime.Phenomenological(0.03, 0.03, 0, 0), spacetime.Circuit(noise.Uniform(0.004))} {
			if r, err := stream.VolumeMemory(toric.Cached(3), 2, m, kind, spacetime.DecodeOptions{}, 64, 1); err == nil {
				t.Errorf("kind %d, model %+v: VolumeMemory ran (%d failures) with no error", kind, m, r.Failures)
			}
		}
		if r, err := toric.MemoryExperiment(3, 0.05, kind, 64, 1); err == nil {
			t.Errorf("kind %d: toric.MemoryExperiment ran (%d failures) with no error", kind, r.Failures)
		}
	}
}
