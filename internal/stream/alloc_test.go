package stream

import (
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/toric"
)

// TestWarmPushZeroAllocs pins the steady-state allocation contract: once
// a streaming decoder is warm (scratch pools grown, retention caches
// populated), Push — including the slides it triggers and the decode
// work behind them — performs zero heap allocations. A regression here
// means a per-slide allocation crept into the hot path.
func TestWarmPushZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc pin runs in the uninstrumented suite")
	}
	const (
		l     = 8
		lanes = 16
		p     = 0.01
	)
	w, c := DefaultWindow(l)
	wh, wv := spacetime.Weights(p, p, l, w)
	s := mustSession(t, l, w, c, wh, wv)
	defer s.Close()
	d := s.NewDecoder(lanes)
	nc := toric.Cached(l).NumChecks()

	// Pre-sample a window's worth of layers so the measured loop does
	// not charge the decoder for the sampler's own behavior.
	src := toricLayers(l, p, p, lanes, frame.NewAggregateSampler(941, 1))
	layers := make([][2][]bits.Vec, w)
	for i := range layers {
		lx, lz := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
		src.NextLayers(lx, lz)
		layers[i] = [2][]bits.Vec{lx, lz}
	}
	next := 0
	pushCommit := func() {
		// One commit's worth of layers: exactly one slide per call once
		// the window is full.
		for i := 0; i < c; i++ {
			lay := layers[next%len(layers)]
			next++
			d.Push(lay[0], lay[1])
		}
	}
	slides := d.Slides()
	for next < 6*w { // warm: grow every pool and populate retention caches
		pushCommit()
	}
	if d.Slides() == slides {
		t.Fatal("warm-up performed no slides")
	}
	slides = d.Slides()
	const runs = 8
	avg := testing.AllocsPerRun(runs, pushCommit)
	if d.Slides() == slides {
		t.Fatal("measured loop performed no slides")
	}
	if avg != 0 {
		t.Fatalf("warm Push/slide allocates: %v allocs per %d-layer commit", avg, c)
	}
}

// TestWarmPushErasedZeroAllocs extends the pin to the erasure-aware
// circuit path: once warm, PushErased — plane copies, quiet-flag
// bookkeeping, the erased-lane from-scratch decodes and the canonical
// erased-list builds behind the slides it triggers — also performs zero
// heap allocations.
func TestWarmPushErasedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc pin runs in the uninstrumented suite")
	}
	const (
		l     = 6
		lanes = 16
	)
	P := noise.Uniform(0.008)
	P.Leak = 0.01
	w, c := DefaultWindow(l)
	wh, wv, wd := spacetime.WeightsCircuit(P, l, w)
	s := mustCircuitSession(t, l, w, c, wh, wv, wd)
	defer s.Close()
	d := s.NewDecoderOpts(lanes, spacetime.DecodeOptions{ErasureAware: true})
	lat := toric.Cached(l)
	nc, nq := lat.NumChecks(), lat.Qubits()

	src := toricCircuitErased(l, P, lanes, frame.NewAggregateSampler(943, 1))
	type round struct {
		layerX, layerZ, eraH, lostX, lostZ []bits.Vec
	}
	layers := make([]round, w)
	for i := range layers {
		layers[i] = round{
			layerX: bits.NewVecs(nc, lanes), layerZ: bits.NewVecs(nc, lanes),
			eraH: bits.NewVecs(nq, lanes), lostX: bits.NewVecs(nc, lanes), lostZ: bits.NewVecs(nc, lanes),
		}
		src.NextLayersErased(layers[i].layerX, layers[i].layerZ, layers[i].eraH, layers[i].lostX, layers[i].lostZ)
	}
	next := 0
	pushCommit := func() {
		for i := 0; i < c; i++ {
			lay := layers[next%len(layers)]
			next++
			d.PushErased(lay.layerX, lay.layerZ, lay.eraH, lay.lostX, lay.lostZ)
		}
	}
	slides := d.Slides()
	for next < 6*w {
		pushCommit()
	}
	if d.Slides() == slides {
		t.Fatal("warm-up performed no slides")
	}
	slides = d.Slides()
	const runs = 8
	avg := testing.AllocsPerRun(runs, pushCommit)
	if d.Slides() == slides {
		t.Fatal("measured loop performed no slides")
	}
	if avg != 0 {
		t.Fatalf("warm PushErased/slide allocates: %v allocs per %d-layer commit", avg, c)
	}
}
