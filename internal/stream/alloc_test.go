package stream

import (
	"runtime"
	"slices"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/toric"
)

// The plain gates' shape: an L = 8 phenomenological session, 16 lanes.
const (
	gateL     = 8
	gateLanes = 16
	gateP     = 0.01
)

// gatePool starts a decode pool of the given worker count (0 means
// GOMAXPROCS), closed when the test ends.
func gatePool(t *testing.T, workers int) *decoder.Service {
	pool := decoder.NewPool(workers)
	t.Cleanup(pool.Close)
	return pool
}

// plainGateSession opens the plain gates' session on pool with its
// window and commit.
func plainGateSession(t *testing.T, pool *decoder.Service) (s *Session, w, c int) {
	w, c = DefaultWindow(gateL)
	wh, wv := spacetime.Weights(gateP, gateP, gateL, w)
	s, err := toricSessionOn(pool, gateL, w, c, wh, wv)
	if err != nil {
		t.Fatal(err)
	}
	return s, w, c
}

// plainGateLayers pre-samples `rounds` rounds of the plain gates' layers
// and their closing layer, last, so a measured loop does not charge the
// decoder for the sampler's own behavior.
func plainGateLayers(rounds int, seed uint64) [][2][]bits.Vec {
	nc := toric.Cached(gateL).Checks()
	src := toricLayers(gateL, gateP, gateP, gateLanes, frame.NewAggregateSampler(seed, 1))
	layers := make([][2][]bits.Vec, rounds+1)
	for i := range layers {
		layers[i] = [2][]bits.Vec{bits.NewVecs(nc, gateLanes), bits.NewVecs(nc, gateLanes)}
		if i < rounds {
			src.NextLayers(layers[i][0], layers[i][1])
		} else {
			src.CloseLayers(layers[i][0], layers[i][1])
		}
	}
	return layers
}

// warmPlainPush returns a warm plain decoder and its commit: one call
// pushes one commit's worth of layers, cycling through a window's worth,
// so once the window is full it runs exactly one slide. It decodes on a
// one-worker pool, as the Finish gates do (finishAllocs says why).
func warmPlainPush(t *testing.T) (d *Decoder, pushCommit func()) {
	s, w, c := plainGateSession(t, gatePool(t, 1))
	d = s.NewDecoder(gateLanes)
	layers := plainGateLayers(w, 941)[:w]
	next := 0
	pushCommit = func() {
		for i := 0; i < c; i++ {
			lay := layers[next%len(layers)]
			next++
			d.Push(lay[0], lay[1])
		}
	}
	for next < 6*w {
		pushCommit()
	}
	if d.Slides() == 0 {
		t.Fatal("warm-up performed no slides")
	}
	return d, pushCommit
}

// commitAllocs is testing.AllocsPerRun over warm commits of d, each
// after `before` when non-nil; a measured loop that slides nothing fails
// the test.
func commitAllocs(t *testing.T, d *Decoder, pushCommit, before func()) float64 {
	t.Helper()
	slides := d.Slides()
	avg := testing.AllocsPerRun(8, func() {
		if before != nil {
			before()
		}
		pushCommit()
	})
	if d.Slides() == slides {
		t.Fatal("measured loop performed no slides")
	}
	return avg
}

// TestWarmPushZeroAllocs pins the steady-state allocation contract: once
// a streaming decoder is warm (its buffers sized, every worker's scratch
// built on the window's graphs), Push — including the slides it triggers
// and the decode work behind them — performs zero heap allocations. A
// regression here means a per-slide allocation crept into the hot path.
func TestWarmPushZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc pin runs in the uninstrumented suite")
	}
	d, pushCommit := warmPlainPush(t)
	if avg := commitAllocs(t, d, pushCommit, nil); avg != 0 {
		t.Fatalf("warm Push/slide allocates: %v allocs per commit", avg)
	}
}

// TestWarmPushErasedZeroAllocs extends the pin to the erasure-aware
// circuit path: once warm, PushErased — plane copies, the erased-lane
// from-scratch decodes and the canonical erased-list builds behind the
// slides it triggers — also performs zero heap allocations.
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
	for next < 6*w {
		pushCommit()
	}
	if d.Slides() == 0 {
		t.Fatal("warm-up performed no slides")
	}
	if avg := commitAllocs(t, d, pushCommit, nil); avg != 0 {
		t.Fatalf("warm PushErased/slide allocates: %v allocs per %d-layer commit", avg, c)
	}
}

// finishAllocs pushes `rounds` rounds into fresh decoders in advance and
// is testing.AllocsPerRun over their Finish calls, each after `before`
// when non-nil. The warm-up call builds the closing volume of that
// height and the pool's scratch on its graphs. The Finish gates decode
// on a one-worker pool: a worker's union-find grows its worklists to
// the largest decode it has run, so on more workers which worker took
// which of the closing decode's spans would decide whether the warm-up
// warmed them all. It returns the decoders, all finished, their
// buffered height at Finish and the average.
func finishAllocs(fresh func() *Decoder, rounds int, push func(d *Decoder, r int), closeX, closeZ []bits.Vec, before func()) (ds []*Decoder, h int, avg float64) {
	const runs = 8
	ds = make([]*Decoder, runs+1) // AllocsPerRun calls once more than runs
	for i := range ds {
		ds[i] = fresh()
		for r := 0; r < rounds; r++ {
			push(ds[i], r)
		}
	}
	h = ds[0].Filled()
	next := 0
	avg = testing.AllocsPerRun(runs, func() {
		if before != nil {
			before()
		}
		ds[next].Finish(closeX, closeZ)
		next++
	})
	return ds, h, avg
}

// plainFinishAllocs is finishAllocs on the plain gates' session, for a
// stream of `rounds` rounds; a decoder that errs or commits other than
// every round fails the test.
func plainFinishAllocs(t *testing.T, rounds int, before func()) (h int, avg float64) {
	t.Helper()
	s, _, _ := plainGateSession(t, gatePool(t, 1))
	layers := plainGateLayers(rounds, 945)
	push := func(d *Decoder, r int) { d.Push(layers[r][0], layers[r][1]) }
	fresh := func() *Decoder { return s.NewDecoder(gateLanes) }
	ds, h, avg := finishAllocs(fresh, rounds, push, layers[rounds][0], layers[rounds][1], before)
	for _, d := range ds {
		if d.Err() != nil || d.Committed() != rounds {
			t.Fatalf("rounds=%d: err %v, %d committed", rounds, d.Err(), d.Committed())
		}
	}
	return h, avg
}

// TestWarmFinishZeroAllocs extends the pin from Push to Finish: once a
// session has closed one stream at a height — the window's closing
// volume of that height built, the pool's scratch on its graphs built —
// the Finish of its next decoder allocates nothing, at h = W and at
// h < W: every pivot, syndrome and ordering buffer was sized in
// NewDecoderOpts.
func TestWarmFinishZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc pin runs in the uninstrumented suite")
	}
	w, _ := DefaultWindow(gateL)
	for _, tc := range []struct{ rounds, h int }{{2 * w, w}, {2*w - 3, w - 3}} {
		h, avg := plainFinishAllocs(t, tc.rounds, nil)
		if h != tc.h {
			t.Fatalf("rounds=%d: closed at height %d, want %d", tc.rounds, h, tc.h)
		}
		if avg != 0 {
			t.Fatalf("warm Finish at height %d of %d allocates %v objects", h, w, avg)
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
	s, err := toricCircuitSessionOn(gatePool(t, 1), l, w, c, wh, wv, wd)
	if err != nil {
		t.Fatal(err)
	}
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
	fresh := func() *Decoder { return s.NewDecoderOpts(lanes, spacetime.DecodeOptions{ErasureAware: true}) }
	ds, h, avg := finishAllocs(fresh, len(layers), push, closeX, closeZ, nil)
	for _, d := range ds {
		if d.Err() != nil || d.Committed() != len(layers) {
			t.Fatalf("err %v, %d committed", d.Err(), d.Committed())
		}
	}
	if h != w-c/2 {
		t.Fatalf("closed at height %d, want %d", h, w-c/2)
	}
	erased := false
	for _, lay := range layers[len(layers)-h:] {
		for _, p := range slices.Concat(lay.eraH, lay.lostX, lay.lostZ) {
			erased = erased || p.Any()
		}
	}
	if !erased {
		t.Fatal("closing window carries no erasure: the test exercises nothing")
	}
	if avg != 0 {
		t.Fatalf("warm erased Finish at height %d of %d allocates %v objects", h, w, avg)
	}
}

// TestWarmSilentStreamZeroAllocs: a silent sector takes the one decode
// path — lists, pool, commit — like any other, so a warm decoder fed
// all-zero layers, every sector of every window silent, pushes, slides
// and finishes at zero heap allocations.
func TestWarmSilentStreamZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc pin runs in the uninstrumented suite")
	}
	s, w, c := plainGateSession(t, gatePool(t, 1))
	nc := toric.Cached(gateL).Checks()
	zeroX, zeroZ := bits.NewVecs(nc, gateLanes), bits.NewVecs(nc, gateLanes)
	push := func(d *Decoder, _ int) { d.Push(zeroX, zeroZ) }
	d := s.NewDecoder(gateLanes)
	pushCommit := func() {
		for i := 0; i < c; i++ {
			push(d, i)
		}
	}
	for d.Rounds() < 6*w {
		pushCommit()
	}
	if avg := commitAllocs(t, d, pushCommit, nil); avg != 0 {
		t.Fatalf("a warm silent Push/slide allocates %v objects per commit", avg)
	}
	fresh := func() *Decoder { return s.NewDecoder(gateLanes) }
	ds, h, avg := finishAllocs(fresh, 2*w, push, zeroX, zeroZ, nil)
	for _, d := range append(ds, d) {
		if d.Err() != nil || d.DefectsObserved() != 0 {
			t.Fatalf("silent stream: err %v, %d defects observed", d.Err(), d.DefectsObserved())
		}
	}
	if avg != 0 {
		t.Fatalf("a warm silent Finish at height %d of %d allocates %v objects", h, w, avg)
	}
}

// TestScratchSurvivesCollections: the zero-allocation contract holds
// whatever the collector does between decodes, because decode scratch
// has owners — the graphs hold every worker's, the decoder its buffers —
// and no cache a collection may empty. Two collections before each
// measured Push commit of a warm decoder, and before each measured
// Finish of a pre-pushed one, leave both at zero allocations.
func TestScratchSurvivesCollections(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc pin runs in the uninstrumented suite")
	}
	collect := func() {
		runtime.GC()
		runtime.GC()
	}
	d, pushCommit := warmPlainPush(t)
	if avg := commitAllocs(t, d, pushCommit, collect); avg != 0 {
		t.Errorf("a warm Push commit after two collections allocates %v objects", avg)
	}
	w, _ := DefaultWindow(gateL)
	if h, avg := plainFinishAllocs(t, 2*w, collect); avg != 0 {
		t.Fatalf("a warm Finish at height %d after two collections allocates %v objects", h, avg)
	}
}

// TestWarmMemoryCallAllocs: a Memory call whose window is held and
// whose drains' decoders wait on the held free list — each with the feed
// and the planes its last drain used — builds no feed and no plane: it
// allocates well under a kilobyte per 128-lane chunk (the sampler, the
// failure masks, the fan-out), for a phenomenological, a circuit-level
// and an erasing model. Each chunk used to build its model's source and
// two layer slabs, tens of kilobytes on these shapes. The drains run
// single file (GOMAXPROCS 1), so every chunk takes the one warm decoder;
// the count is the smallest of three calls, since MemStats is
// process-wide.
func TestWarmMemoryCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc pin runs in the uninstrumented suite")
	}
	const (
		l       = 6
		rounds  = 16
		chunks  = 4
		samples = chunks * 128
		bound   = 1024 // bytes per chunk
	)
	holdFreeList(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	code := toric.Cached(l)
	for _, tc := range []struct {
		name string
		m    spacetime.Model
	}{
		{"phenomenological", spacetime.Phenomenological(0.01, 0.01, 0, 0)},
		{"circuit", spacetime.Circuit(noise.Uniform(0.004))},
		{"erasing", spacetime.Phenomenological(0.01, 0.01, 0.02, 0.02)},
	} {
		w, c := DefaultWindow(l)
		horizon := rounds
		if tc.m.CircuitLevel() {
			horizon = w
		}
		wh, wv, wd := tc.m.Weights(l, horizon)
		held, err := InternWindow(code, w, c, wh, wv, wd)
		if err != nil {
			t.Fatal(err)
		}
		memory := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Memory(code, rounds, tc.m, w, c, spacetime.DecodeOptions{}, samples, 0x5eed); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		memory()
		least := memory()
		for i := 0; i < 2; i++ {
			least = min(least, memory())
		}
		if per := least / chunks; per > bound {
			t.Errorf("%s: a warm Memory call allocates %d bytes per chunk, want at most %d", tc.name, per, bound)
		} else {
			t.Logf("%s: %d bytes per chunk", tc.name, per)
		}
		runtime.KeepAlive(held)
	}
}
