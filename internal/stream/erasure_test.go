package stream

import (
	"slices"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/toric"
)

// silentPrimal is a feed whose primal difference layers, closing round
// included, are empty in every lane: its primal sector decodes to the
// empty correction while its dual decodes.
type silentPrimal struct{ spacetime.LayerFeed }

func (f silentPrimal) NextLayers(layerX, layerZ []bits.Vec) {
	f.LayerFeed.NextLayers(layerX, layerZ)
	clearPlanes(layerX)
}

func (f silentPrimal) NextLayersErased(layerX, layerZ, eraH, lostX, lostZ []bits.Vec) {
	f.LayerFeed.NextLayersErased(layerX, layerZ, eraH, lostX, lostZ)
	clearPlanes(layerX)
}

func (f silentPrimal) CloseLayers(layerX, layerZ []bits.Vec) {
	f.LayerFeed.CloseLayers(layerX, layerZ)
	clearPlanes(layerX)
}

func clearPlanes(vs []bits.Vec) {
	for _, v := range vs {
		v.Clear()
	}
}

// TestErasedWindowGEVolumeBitIdentical: when the window holds the whole
// stream, draining an erasure-harvesting source through the streaming
// decoder must reproduce the from-scratch per-lane whole-volume decode
// (volumeReference) bit for bit — for every option set, including the
// serialized correlated pass, on circuit sources and on phenomenological
// ones with leaked data qubits and lost measurements (whose windows have
// no diagonal class). Same draws, same canonical erased lists, same
// primal→dual order.
func TestErasedWindowGEVolumeBitIdentical(t *testing.T) {
	const lanes = 192
	circuit := func(eps, leak float64) spacetime.Model {
		P := noise.Uniform(eps)
		P.Leak = leak
		return spacetime.Circuit(P)
	}
	aware := spacetime.DecodeOptions{ErasureAware: true}
	correlated := spacetime.DecodeOptions{Correlated: true}
	both := spacetime.DecodeOptions{ErasureAware: true, Correlated: true}
	for _, cfg := range []struct {
		l, rounds, window int
		m                 spacetime.Model
		opts              spacetime.DecodeOptions
	}{
		{4, 4, 4, circuit(0.006, 0.01), aware},
		{4, 4, 4, circuit(0.006, 0.01), spacetime.DecodeOptions{}},
		{4, 4, 4, circuit(0.006, 0.008), both},
		{4, 4, 4, circuit(0.008, 0), correlated},
		{3, 2, 2, circuit(0.01, 0.02), aware},
		{5, 3, 3, circuit(0.004, 0.006), both},
		{4, 4, 4, spacetime.Phenomenological(0.02, 0.02, 0.03, 0.03), aware},
		{4, 3, 5, spacetime.Phenomenological(0.02, 0.02, 0.05, 0.02), both},
		{3, 5, 5, spacetime.Phenomenological(0.03, 0.03, 0.02, 0.04), correlated},
		{5, 2, 3, spacetime.Phenomenological(0.01, 0.02, 0.04, 0), aware},
		{4, 3, 3, spacetime.Phenomenological(0.02, 0.02, 0.05, 0.05), spacetime.DecodeOptions{}},
	} {
		code := toric.Cached(cfg.l)
		wh, wv, wd := cfg.m.Weights(cfg.l, cfg.rounds)
		v := spacetime.NewVolume(code, cfg.rounds, wh, wv, wd)
		fx1, fz1 := volumeReference(v, cfg.m.Source(code, lanes, frame.NewAggregateSampler(971, 7)), cfg.opts)
		s := mustCircuitSession(t, cfg.l, cfg.window, 1, wh, wv, wd)
		fx2, fz2 := s.BatchMemoryFrom(cfg.m.Source(code, lanes, frame.NewAggregateSampler(971, 7)), cfg.rounds, cfg.opts)
		s.Close()
		if !fx1.Equal(fx2) || !fz1.Equal(fz2) {
			t.Fatalf("L=%d T=%d W=%d model %+v opts=%+v: streaming erased decode differs from whole-volume (X %d vs %d fails, Z %d vs %d)",
				cfg.l, cfg.rounds, cfg.window, cfg.m, cfg.opts, fx1.Weight(), fx2.Weight(), fz1.Weight(), fz2.Weight())
		}
		if fx1.Weight()+fz1.Weight() == 0 {
			t.Fatalf("L=%d T=%d model %+v: degenerate, no lane fails", cfg.l, cfg.rounds, cfg.m)
		}
	}
}

// TestCorrelatedSilentPrimalFinish: a correlated decoder whose primal
// planes are silent in every lane decodes an empty primal in a Finish
// at W ≥ T, and its dual must reprice from that empty correction,
// as a fresh decoder does (internal/oracle holds fresh decoders to the
// whole volume) — not from whatever the shared correction lists hold
// from the decoder's last stream. The silent drain reuses the decoder
// a loud drain of the same class just freed.
func TestCorrelatedSilentPrimalFinish(t *testing.T) {
	const lanes = 128
	holdFreeList(t)
	circuit := func(eps, leak float64) spacetime.Model {
		P := noise.Uniform(eps)
		P.Leak = leak
		return spacetime.Circuit(P)
	}
	for _, cfg := range []struct {
		l, rounds int
		m         spacetime.Model
		opts      spacetime.DecodeOptions
	}{
		{4, 4, circuit(0.008, 0), spacetime.DecodeOptions{Correlated: true}},
		{4, 4, circuit(0.006, 0.01), spacetime.DecodeOptions{ErasureAware: true, Correlated: true}},
		{3, 5, spacetime.Phenomenological(0.04, 0.04, 0.03, 0.03), spacetime.DecodeOptions{Correlated: true}},
	} {
		code := toric.Cached(cfg.l)
		wh, wv, wd := cfg.m.Weights(cfg.l, cfg.rounds)
		s := mustCircuitSession(t, cfg.l, cfg.rounds, 1, wh, wv, wd)
		silent := func() spacetime.LayerFeed {
			return silentPrimal{cfg.m.Source(code, lanes, frame.NewAggregateSampler(977, 3))}
		}
		fresh := freshDrain(s, silent(), cfg.rounds, cfg.opts)
		s.BatchMemoryFrom(cfg.m.Source(code, lanes, frame.NewAggregateSampler(977, 4)), cfg.rounds, cfg.opts)
		loud := freeDecoders()
		reused, d := drainOnce(s, silent(), cfg.rounds, cfg.opts)
		s.Close()
		if d != loud[len(loud)-1] || d.Slides() != 0 || d.DefectsObserved() == 0 {
			t.Fatalf("L=%d T=%d model %+v: degenerate, the silent drain did not reuse the loud drain's decoder at W = T with dual defects", cfg.l, cfg.rounds, cfg.m)
		}
		if !sameOutcome(fresh, reused) {
			t.Fatalf("L=%d T=%d model %+v opts=%+v: silent-primal Finish on the reused decoder differs from a fresh decoder's (X %d vs %d fails, Z %d vs %d)",
				cfg.l, cfg.rounds, cfg.m, cfg.opts, fresh.failX.Weight(), reused.failX.Weight(), fresh.failZ.Weight(), reused.failZ.Weight())
		}
		if fresh.failZ.Weight() == 0 {
			t.Fatalf("L=%d T=%d model %+v: degenerate, no lane fails in the dual sector", cfg.l, cfg.rounds, cfg.m)
		}
	}
}

// streamFrames drains rounds of src through d, reading every round
// through NextLayersErased, and returns the committed frames. push(r)
// reports whether round r goes in by Push (its erasure planes
// discarded); zero(r) whether it goes in by PushErased with all-empty
// planes. Every other round goes in by PushErased with its own planes.
func streamFrames(t *testing.T, d *Decoder, src spacetime.LayerFeed, rounds int, push, zero func(r int) bool) (x, z []bits.Vec) {
	t.Helper()
	lanes, nc, nq := d.lanes, d.nc, d.nq
	layerX, layerZ := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
	eraH, lostX, lostZ := bits.NewVecs(nq, lanes), bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
	none, noneX, noneZ := bits.NewVecs(nq, lanes), bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
	for r := 0; r < rounds; r++ {
		src.NextLayersErased(layerX, layerZ, eraH, lostX, lostZ)
		switch {
		case push(r):
			d.Push(layerX, layerZ)
		case zero(r):
			d.PushErased(layerX, layerZ, none, noneX, noneZ)
		default:
			d.PushErased(layerX, layerZ, eraH, lostX, lostZ)
		}
	}
	src.CloseLayers(layerX, layerZ)
	d.Finish(layerX, layerZ)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	x, z = d.Corrections()
	return cloneVecs(x), cloneVecs(z)
}

func cloneVecs(vs []bits.Vec) []bits.Vec {
	out := make([]bits.Vec, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}

// TestPushMixesWithPushErased: a Push round is a round with nothing
// erased. Erasure-aware and correlated decoders fed Push on some rounds
// of a leaking stream — including rounds landing in ring slots that held
// erasures before — commit the frames of the same stream fed PushErased
// with empty planes on those rounds. A malformed erasure round still
// panics.
func TestPushMixesWithPushErased(t *testing.T) {
	const l, rounds, window, commit, lanes = 4, 14, 4, 2, 64
	P := noise.Uniform(0.005)
	P.Leak = 0.01
	wh, wv, wd := spacetime.WeightsCircuit(P, l, window)
	s := mustCircuitSession(t, l, window, commit, wh, wv, wd)
	defer s.Close()
	mixed := func(r int) bool { return r%3 == 1 }
	never := func(int) bool { return false }
	for _, opts := range []spacetime.DecodeOptions{{ErasureAware: true}, {Correlated: true}, {ErasureAware: true, Correlated: true}} {
		x1, z1 := streamFrames(t, s.NewDecoderOpts(lanes, opts), toricCircuit(l, P, lanes, frame.NewAggregateSampler(983, 3)), rounds, mixed, never)
		x2, z2 := streamFrames(t, s.NewDecoderOpts(lanes, opts), toricCircuit(l, P, lanes, frame.NewAggregateSampler(983, 3)), rounds, never, mixed)
		if !slices.EqualFunc(x1, x2, bits.Vec.Equal) || !slices.EqualFunc(z1, z2, bits.Vec.Equal) {
			t.Fatalf("opts=%+v: Push rounds commit other frames than PushErased rounds with empty planes", opts)
		}
	}
	d := s.NewDecoderOpts(lanes, spacetime.DecodeOptions{ErasureAware: true})
	nc, nq := d.nc, d.nq
	defer func() {
		if recover() == nil {
			t.Fatal("erasure plane count mismatch did not panic")
		}
	}()
	d.PushErased(bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes), bits.NewVecs(nq, lanes)[:1], bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes))
}

// TestErasedStreamFootprintFlat is TestThousandRoundStreamSmoke for an
// erasure-fed stream: 3,000 rounds of L=6 circuit-level streaming with
// leakage, at a rate where erased lanes are the exception and at one
// where they are the rule, must keep the footprint flat — the per-lane
// erased-edge lists are sized with the window, not grown by the densest
// window seen so far.
func TestErasedStreamFootprintFlat(t *testing.T) {
	const (
		l      = 6
		lanes  = 64
		rounds = 3000
	)
	for _, leak := range []float64{0.002, 0.01} {
		P := noise.Uniform(0.003)
		P.Leak = leak
		w, c := DefaultWindow(l)
		wh, wv, wd := spacetime.WeightsCircuit(P, l, w)
		s := mustCircuitSession(t, l, w, c, wh, wv, wd)
		src := toricCircuit(l, P, lanes, frame.NewAggregateSampler(981, 1))
		d := s.NewDecoderOpts(lanes, spacetime.DecodeOptions{ErasureAware: true})
		nc, nq := d.nc, d.nq
		layerX, layerZ := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
		eraH := bits.NewVecs(nq, lanes)
		lostX, lostZ := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
		warm := 0
		for r := 0; r < rounds; r++ {
			src.NextLayersErased(layerX, layerZ, eraH, lostX, lostZ)
			d.PushErased(layerX, layerZ, eraH, lostX, lostZ)
			if r == 99 {
				warm = d.FootprintBytes()
			}
		}
		src.CloseLayers(layerX, layerZ)
		d.Finish(layerX, layerZ)
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		if final := d.FootprintBytes(); final > warm+warm/10 {
			t.Errorf("leak %g: footprint grew: %d bytes at 100 rounds, %d at %d", leak, warm, final, rounds)
		}
		s.Close()
	}
}

// TestCircuitMemoryOptsValidation: malformed models and horizons are
// constructor errors through the streaming entry points too.
func TestCircuitMemoryOptsValidation(t *testing.T) {
	bad := noise.Uniform(0.005)
	bad.Leak = -0.1
	if _, err := toricCircuitMemoryOpts(4, 4, bad, 0, 0, 64, 1, spacetime.DecodeOptions{}); err == nil {
		t.Fatal("CircuitMemoryOpts accepted Leak=-0.1")
	}
	if _, err := toricCircuitMemoryOpts(4, 0, noise.Uniform(0.005), 0, 0, 64, 1, spacetime.DecodeOptions{}); err == nil {
		t.Fatal("CircuitMemoryOpts accepted rounds=0")
	}
}
