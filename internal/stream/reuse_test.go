package stream

import (
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"weak"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// drainOutcome is everything a drain's decoder leaves behind that a
// reused decoder must reproduce, down to the silent-sector test its
// quiet flags and carries pass.
type drainOutcome struct {
	failX, failZ   bits.Vec
	corrX, corrZ   []bits.Vec
	slides, silent int
	defects        uint64
}

// drainOnce runs one feed through s's drain and reads the decoder the
// drain handed back, the newest entry of the free list.
func drainOnce(s *Session, src spacetime.LayerFeed, rounds int, opts spacetime.DecodeOptions) (drainOutcome, *Decoder) {
	var o drainOutcome
	o.failX, o.failZ = s.BatchMemoryFrom(src, rounds, opts)
	free := freeDecoders()
	d := free[len(free)-1]
	o.corrX, o.corrZ = d.Corrections()
	o.slides, o.defects = d.Slides(), d.DefectsObserved()
	for _, sec := range [2]*sectorState{&d.sx, &d.sz} {
		if d.sectorQuiet(sec, nil) {
			o.silent++ // the skip test the next decode of this ring would pass
		}
	}
	return o, d
}

// freeDecoders returns the free list, oldest first (nil once a
// collection has freed it).
func freeDecoders() []*Decoder {
	drains.Lock()
	defer drains.Unlock()
	if free := drains.free.Value(); free != nil {
		return slices.Clone(*free)
	}
	return nil
}

// freshDrain is drainOnce on a new decoder: the free list is set aside
// for the drain and put back afterwards.
func freshDrain(s *Session, src spacetime.LayerFeed, rounds int, opts spacetime.DecodeOptions) drainOutcome {
	saved := drains.free
	drains.free = weak.Pointer[[]*Decoder]{}
	defer func() { drains.free = saved }()
	o, _ := drainOnce(s, src, rounds, opts)
	return o
}

// freeOfClass counts the free decoders of a drain class.
func freeOfClass(c drainClass) int {
	n := 0
	for _, d := range freeDecoders() {
		if d.class == c {
			n++
		}
	}
	return n
}

// holdFreeList stops the collector for the rest of the test, so the
// weakly held free list keeps what the drains put on it.
func holdFreeList(t *testing.T) {
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gc) })
}

func sameOutcome(a, b drainOutcome) bool {
	return a.failX.Equal(b.failX) && a.failZ.Equal(b.failZ) &&
		slices.EqualFunc(a.corrX, b.corrX, bits.Vec.Equal) && slices.EqualFunc(a.corrZ, b.corrZ, bits.Vec.Equal) &&
		a.slides == b.slides && a.silent == b.silent && a.defects == b.defects
}

// TestReusedDecoderMatchesFresh pushes a sequence of feeds through one
// window's drains — each drain resetting the decoder an earlier one left
// on the free list — and demands of every drain exactly what a
// fresh decoder on a new window gives for the same feed: failure masks, committed frames,
// slides, defects observed and the silent-sector test its rings pass
// afterwards (a stale quiet flag fails it). The sequence covers
// a long stream (several slides), a silent stream that leaves every
// quiet flag set, short W > T streams with unfilled ring slots (one
// silent enough to skip its closing decode), a decoder abandoned
// mid-stream with carries pending, and plain and erasure-aware decoders,
// whose options differ and which must never be handed to each other.
func TestReusedDecoderMatchesFresh(t *testing.T) {
	holdFreeList(t)
	const l, w, commit, lanes = 4, 8, 4, 64
	code := toric.Cached(l)
	plain := noise.Uniform(0.006)
	leaky := plain
	leaky.Leak = 0.01
	wh, wv, wd := spacetime.WeightsCircuit(plain, l, w)
	s := mustCodeCircuitSession(t, code, w, commit, wh, wv, wd)
	defer s.Close()
	aware := spacetime.DecodeOptions{ErasureAware: true}

	circuit := func(seed uint64) spacetime.LayerFeed {
		return surface.NewCircuitSource(code, plain, lanes, frame.NewAggregateSampler(seed, 1))
	}
	silent := func(seed uint64) spacetime.LayerFeed {
		return surface.NewLayerSource(code, 0, 0, lanes, frame.NewAggregateSampler(seed, 1))
	}
	erased := func(seed uint64) spacetime.LayerFeed {
		return surface.NewCircuitSource(code, leaky, lanes, frame.NewAggregateSampler(seed, 1))
	}
	var prev *Decoder
	for i, step := range []struct {
		name    string
		feed    func(seed uint64) spacetime.LayerFeed
		rounds  int
		opts    spacetime.DecodeOptions
		abandon bool // first leave a decoder mid-stream, carries pending
		reused  bool // the drain must get the previous drain's decoder
	}{
		{"long", circuit, 5 * w, spacetime.DecodeOptions{}, false, false},
		{"silent long", silent, 3 * w, spacetime.DecodeOptions{}, false, true},
		{"short silent", silent, w - 3, spacetime.DecodeOptions{}, false, true},
		{"short", circuit, w - 3, spacetime.DecodeOptions{}, false, true},
		{"after abandoned", circuit, 3 * w, spacetime.DecodeOptions{}, true, true},
		{"erased", erased, 4 * w, aware, false, false},
		{"erased short", erased, w - 2, aware, false, true},
		{"plain after erased", circuit, 2 * w, spacetime.DecodeOptions{}, false, false},
	} {
		seed := uint64(0x7e05e + i)
		if step.abandon {
			d := s.win.takeDecoder(s.pool, lanes, step.opts)
			if d != prev {
				t.Fatalf("%s: the abandoned stream did not reuse the free decoder", step.name)
			}
			src := circuit(seed ^ 0xabad)
			layerX, layerZ := bits.NewVecs(code.Checks(), lanes), bits.NewVecs(code.Checks(), lanes)
			for r := 0; r < 2*w+1; r++ {
				src.NextLayers(layerX, layerZ)
				d.Push(layerX, layerZ)
			}
			carried := false
			for lane := 0; lane < lanes; lane++ {
				carried = carried || d.sx.carry[lane].Any() || d.sz.carry[lane].Any()
			}
			if !carried {
				t.Fatal("degenerate: the abandoned stream left no carry")
			}
			putDecoder(d)
		}
		got, d := drainOnce(s, step.feed(seed), step.rounds, step.opts)
		if n := freeOfClass(d.class); n != 1 {
			t.Fatalf("%s: %d decoders of the drain's class on the free list after sequential drains", step.name, n)
		}
		if (d == prev) != step.reused {
			t.Fatalf("%s: decoder reused = %v, want %v", step.name, d == prev, step.reused)
		}
		fresh, err := NewWindow(code, w, commit, wh, wv, wd)
		if err != nil {
			t.Fatal(err)
		}
		want := freshDrain(NewSessionOn(s.pool, fresh), step.feed(seed), step.rounds, step.opts)
		if !sameOutcome(got, want) {
			t.Fatalf("%s: reused decoder gave slides %d, silent %d, defects %d, failures %d/%d; fresh %d, %d, %d, %d/%d",
				step.name, got.slides, got.silent, got.defects, got.failX.Weight(), got.failZ.Weight(),
				want.slides, want.silent, want.defects, want.failX.Weight(), want.failZ.Weight())
		}
		if step.name == "short silent" && want.silent != 0 {
			t.Fatalf("a fresh decoder's unfilled slots pass the silent-sector test in %d sectors", want.silent)
		}
		prev = d
	}
}

// TestDrainDecodersCrossWindows: a drain's decoder serves the next
// drain of its class — code, window height, diagonal class, lanes and
// options — on any window, whatever its weights or commit, and gives
// there what a fresh decoder gives; a window of another height or
// diagonal class, or a drain of other lanes, builds its own. A
// collection frees the free list once no drain runs.
func TestDrainDecodersCrossWindows(t *testing.T) {
	const l, w, lanes = 4, 6, 64
	code := toric.Cached(l)
	holdFreeList(t)
	forgetShapes()
	defer forgetShapes()
	pool := decoder.NewPool(2)
	defer pool.Close()
	session := func(w, commit, wh, wv, wd int) *Session {
		win, err := NewWindow(code, w, commit, wh, wv, wd)
		if err != nil {
			t.Fatal(err)
		}
		return NewSessionOn(pool, win)
	}
	P := noise.Uniform(0.006)
	feed := func(lanes int, seed uint64) spacetime.LayerFeed {
		return surface.NewCircuitSource(code, P, lanes, frame.NewAggregateSampler(seed, 1))
	}
	none := spacetime.DecodeOptions{}
	_, first := drainOnce(session(w, 3, 2, 3, 4), feed(lanes, 1), 3*w, none)
	for i, row := range []struct {
		name                  string
		w, commit, wh, wv, wd int
		lanes                 int
		same                  bool
	}{
		{"other weights and commit", w, 2, 5, 1, 2, lanes, true},
		{"other weights again", w, 4, 1, 1, 1, lanes, true},
		{"other height", w + 1, 3, 2, 3, 4, lanes, false},
		{"phenomenological window", w, 3, 2, 3, 0, lanes, false},
		{"other lanes", w, 3, 2, 3, 4, lanes - 1, false},
	} {
		s := session(row.w, row.commit, row.wh, row.wv, row.wd)
		seed := uint64(10 + i)
		got, d := drainOnce(s, feed(row.lanes, seed), 3*w, none)
		if (d == first) != row.same {
			t.Fatalf("%s: decoder shared = %v, want %v", row.name, d == first, row.same)
		}
		if want := freshDrain(s, feed(row.lanes, seed), 3*w, none); !sameOutcome(got, want) {
			t.Fatalf("%s: the shared decoder differs from a fresh one (failures %d/%d, fresh %d/%d)",
				row.name, got.failX.Weight(), got.failZ.Weight(), want.failX.Weight(), want.failZ.Weight())
		}
	}

	// A collection while a drain runs keeps the list; one after the last
	// drain frees it.
	s := session(w, 3, 2, 3, 4)
	running := s.win.takeDecoder(pool, lanes, none)
	runtime.GC()
	if len(freeDecoders()) == 0 {
		t.Fatal("a collection while a drain runs freed the free list")
	}
	putDecoder(running)
	runtime.GC()
	if n := len(freeDecoders()); n != 0 {
		t.Fatalf("a collection after the last drain left %d free decoders", n)
	}
}

// forgetShapes empties the window table and the free list, so the next
// call of every shape builds its window, closing volumes and decoders
// afresh.
func forgetShapes() {
	shapes.Lock()
	clear(shapes.m)
	shapes.Unlock()
	drains.Lock()
	drains.free = weak.Pointer[[]*Decoder]{}
	drains.Unlock()
}

// TestMemoryReuseAcrossCalls: a Memory call on an interned window —
// its graphs, closing volumes and drain decoders left by earlier calls,
// on the process-wide pool — returns exactly what the same call returns
// on an empty table. The sequence runs shape A, shape B, A again with a
// partial last chunk (its own decoder lanes), A from two goroutines at
// once (two calls' drains on one free list), and A under GOMAXPROCS 4
// on a pool that started under GOMAXPROCS 1, which must grow to it.
func TestMemoryReuseAcrossCalls(t *testing.T) {
	type call struct {
		name    string
		l       int
		m       spacetime.Model
		samples int
	}
	a := call{"A", 4, spacetime.Circuit(noise.Uniform(0.004)), 512}
	b := call{"B", 5, spacetime.Phenomenological(0.02, 0.02, 0, 0), 256}
	aPartial := call{"A partial", 4, a.m, 300}
	const rounds, seed = 12, 0x5eed
	holdFreeList(t)
	memory := func(t *testing.T, c call) Result {
		t.Helper()
		r, err := Memory(toric.Cached(c.l), rounds, c.m, 0, 0, spacetime.DecodeOptions{}, c.samples, seed)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	first := map[string]Result{}
	for _, c := range []call{a, b, aPartial} {
		forgetShapes()
		first[c.name] = memory(t, c)
	}
	forgetShapes()
	// Holding A's window keeps it interned through the sequence.
	w, c := DefaultWindow(a.l)
	wh, wv, wd := a.m.Weights(a.l, w)
	held, err := InternWindow(toric.Cached(a.l), w, c, wh, wv, wd)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.KeepAlive(held)
	for _, c := range []call{a, b, aPartial} {
		if got := memory(t, c); got != first[c.name] {
			t.Fatalf("%s on a warm table: %+v, first call %+v", c.name, got, first[c.name])
		}
		if freeOfClass(drainClass{"toric", a.l, w, 128, true, spacetime.DecodeOptions{}}) == 0 {
			t.Fatalf("after %s: the free list keeps no decoder of A's class for the next call", c.name)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := memory(t, a); got != first[a.name] {
				t.Errorf("A from goroutine %d: %+v, first call %+v", g, got, first[a.name])
			}
		}()
	}
	wg.Wait()

	// A pool started under GOMAXPROCS 1 serves a call under 4.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	mcPool.Lock()
	shared := mcPool.pool
	mcPool.pool = nil
	mcPool.Unlock()
	defer func() {
		mcPool.Lock()
		mcPool.pool.Close()
		mcPool.pool = shared
		mcPool.Unlock()
	}()
	for _, n := range []int{1, 4} {
		runtime.GOMAXPROCS(n)
		if got := memory(t, a); got != first[a.name] {
			t.Fatalf("A under GOMAXPROCS %d: %+v, first call %+v", n, got, first[a.name])
		}
		mcPool.Lock()
		workers := mcPool.pool.Grow(0)
		mcPool.Unlock()
		if workers < n {
			t.Fatalf("a call under GOMAXPROCS %d decoded on %d workers", n, workers)
		}
	}
}
