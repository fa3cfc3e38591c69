package stream

import (
	"runtime"
	"runtime/debug"
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
	nc := toric.Cached(l).Checks()

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
	nc, nq := lat.Checks(), lat.Qubits()

	src := toricCircuit(l, P, lanes, frame.NewAggregateSampler(943, 1))
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

// quietRuntime makes a one-shot malloc count exact the way
// testing.AllocsPerRun does for a loop: one P, so the per-P sync.Pools
// holding the decode scratch hand back what the warm-up put in, and no
// collection, which may empty them. The returned func restores both.
func quietRuntime() (restore func()) {
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	return func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	}
}

// finishMallocs pushes `rounds` rounds into a fresh decoder and returns
// the buffered height its Finish closes and the heap objects allocated
// across that Finish alone.
func finishMallocs(d *Decoder, rounds int, push func(d *Decoder, r int), closeX, closeZ []bits.Vec) (h int, mallocs uint64) {
	for r := 0; r < rounds; r++ {
		push(d, r)
	}
	h = d.Filled()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.Finish(closeX, closeZ)
	runtime.ReadMemStats(&after)
	return h, after.Mallocs - before.Mallocs
}

// TestWarmFinishZeroAllocs extends the pin from Push to Finish: once a
// session has closed one stream at a height — the window's closing
// volume of that height built, its graphs' scratch grown — the Finish of
// its next decoder allocates nothing, at h = W and at h < W: every
// pivot, syndrome and ordering buffer was sized in NewDecoderOpts.
func TestWarmFinishZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc pin runs in the uninstrumented suite")
	}
	defer quietRuntime()()
	const (
		l     = 8
		lanes = 16
		p     = 0.01
	)
	w, c := DefaultWindow(l)
	wh, wv := spacetime.Weights(p, p, l, w)
	s := mustSession(t, l, w, c, wh, wv)
	defer s.Close()
	nc := toric.Cached(l).Checks()
	for _, tc := range []struct{ rounds, h int }{{2 * w, w}, {2*w - 3, w - 3}} {
		src := toricLayers(l, p, p, lanes, frame.NewAggregateSampler(945, 1))
		layers := make([][2][]bits.Vec, tc.rounds+1) // the closing layer last
		for i := range layers {
			layers[i] = [2][]bits.Vec{bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)}
			if i < tc.rounds {
				src.NextLayers(layers[i][0], layers[i][1])
			} else {
				src.CloseLayers(layers[i][0], layers[i][1])
			}
		}
		push := func(d *Decoder, r int) { d.Push(layers[r][0], layers[r][1]) }
		for i := 0; i < 4; i++ { // three warm streams, then the measured one
			d := s.NewDecoder(lanes)
			h, mallocs := finishMallocs(d, tc.rounds, push, layers[tc.rounds][0], layers[tc.rounds][1])
			if d.Err() != nil || h != tc.h || d.Committed() != tc.rounds {
				t.Fatalf("rounds=%d: err %v, closed at height %d, %d committed", tc.rounds, d.Err(), h, d.Committed())
			}
			if i == 3 && mallocs != 0 {
				t.Fatalf("warm Finish at height %d of %d allocates %d objects", h, w, mallocs)
			}
		}
	}
}

// TestWarmFinishErasedZeroAllocs is the erasure-aware twin: the closing
// decode's erasure pivots and erased-edge lists reuse the slides'
// buffers.
func TestWarmFinishErasedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc pin runs in the uninstrumented suite")
	}
	defer quietRuntime()()
	const (
		l     = 6
		lanes = 16
	)
	// Rates at which a fresh decoder's lists, sized once from the window
	// shape, hold a window's defects and erasures without growing.
	P := noise.Uniform(0.003)
	P.Leak = 0.002
	w, c := DefaultWindow(l)
	wh, wv, wd := spacetime.WeightsCircuit(P, l, w)
	s := mustCircuitSession(t, l, w, c, wh, wv, wd)
	defer s.Close()
	lat := toric.Cached(l)
	nc, nq := lat.Checks(), lat.Qubits()
	src := toricCircuit(l, P, lanes, frame.NewAggregateSampler(947, 1))
	type round struct {
		layerX, layerZ, eraH, lostX, lostZ []bits.Vec
	}
	layers := make([]round, 2*w-c/2)
	for i := range layers {
		layers[i] = round{
			layerX: bits.NewVecs(nc, lanes), layerZ: bits.NewVecs(nc, lanes),
			eraH: bits.NewVecs(nq, lanes), lostX: bits.NewVecs(nc, lanes), lostZ: bits.NewVecs(nc, lanes),
		}
		src.NextLayersErased(layers[i].layerX, layers[i].layerZ, layers[i].eraH, layers[i].lostX, layers[i].lostZ)
	}
	closeX, closeZ := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
	src.CloseLayers(closeX, closeZ)
	push := func(d *Decoder, r int) {
		lay := layers[r]
		d.PushErased(lay.layerX, lay.layerZ, lay.eraH, lay.lostX, lay.lostZ)
	}
	for i := 0; i < 4; i++ {
		d := s.NewDecoderOpts(lanes, spacetime.DecodeOptions{ErasureAware: true})
		h, mallocs := finishMallocs(d, len(layers), push, closeX, closeZ)
		if d.Err() != nil || h != w-c/2 || d.Committed() != len(layers) {
			t.Fatalf("err %v, closed at height %d, %d committed", d.Err(), h, d.Committed())
		}
		if !d.windowErased(&d.sx, h) && !d.windowErased(&d.sz, h) {
			t.Fatal("closing window carries no erasure: the test exercises nothing")
		}
		if i == 3 && mallocs != 0 {
			t.Fatalf("warm erased Finish at height %d of %d allocates %d objects", h, w, mallocs)
		}
	}
}
