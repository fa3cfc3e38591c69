package stream

import (
	"runtime"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/toric"
)

// heapInUse is the live heap after two collections — the second frees
// what the cleanups and finalizers the first one queued let go of.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// TestDroppedShapesAreCollected: a window shape nobody holds any more
// costs nothing. Two hundred distinct shapes — the wire admits 1024³
// weight triples per (L, W, C) — each decoded to Finish and dropped,
// leave the heap where it was: the closing volumes belong to the
// window, the decode scratch to its graphs, and no process- or
// pool-lifetime map remembers either: the window table Memory interns
// through holds its entries weakly, so an idle shape goes with its
// closing volumes, and the drains' free list is held weakly between
// runs, so the free decoders go at the next collection. The same holds
// for the never-sliding windows the whole-volume experiments intern per
// call.
func TestDroppedShapesAreCollected(t *testing.T) {
	if testing.Short() {
		t.Skip("two hundred window builds")
	}
	const (
		shapes  = 200
		slackMB = 8
		l       = 8
		lanes   = 64
		rounds  = 20
	)
	code := toric.Cached(l)
	flat := func(t *testing.T, run func(i int)) {
		t.Helper()
		run(0) // whatever the first shape leaves behind is not per shape
		base := heapInUse()
		for i := 0; i < shapes; i++ {
			run(i)
		}
		grown := int64(heapInUse()-base) >> 10
		if grown > slackMB<<10 {
			t.Fatalf("%d dropped shapes left %d KB of heap in use", shapes, grown)
		}
		t.Logf("%d dropped shapes: heap in use %+d KB", shapes, grown)
	}

	t.Run("sessions on one pool", func(t *testing.T) {
		pool := decoder.NewPool(0)
		defer pool.Close()
		nc := code.Checks()
		src := toricCircuit(l, noise.Uniform(0.003), lanes, frame.NewAggregateSampler(991, 1))
		layers := make([][2][]bits.Vec, rounds+1) // the closing layer last
		for r := range layers {
			layers[r] = [2][]bits.Vec{bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)}
			if r < rounds {
				src.NextLayers(layers[r][0], layers[r][1])
			} else {
				src.CloseLayers(layers[r][0], layers[r][1])
			}
		}
		flat(t, func(i int) {
			win, err := NewWindow(code, 2*l, l, 2+i%5, 1+i/5%5, 1+i/25)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSessionOn(pool, win)
			d := s.NewDecoder(lanes)
			for r := 0; r < rounds; r++ {
				d.Push(layers[r][0], layers[r][1])
			}
			d.Finish(layers[rounds][0], layers[rounds][1])
			if d.Err() != nil || d.Committed() != rounds {
				t.Fatalf("shape %d: err %v, %d committed", i, d.Err(), d.Committed())
			}
			s.Close()
		})
	})

	t.Run("interned Monte Carlo calls", func(t *testing.T) {
		var shapes [][2]int // every (window, commit) with window ≤ 21
		for w := 2; len(shapes) <= 200; w++ {
			for c := 1; c < w; c++ {
				shapes = append(shapes, [2]int{w, c})
			}
		}
		flat(t, func(i int) {
			if _, err := Memory(code, rounds, spacetime.Circuit(noise.Uniform(0.003)), shapes[i][0], shapes[i][1], spacetime.DecodeOptions{}, lanes, uint64(i)); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("whole-volume experiments", func(t *testing.T) {
		models := []noise.Params{
			{Gate2: 0.001, Meas: 0.001}, {Gate2: 0.001, Meas: 0.02}, {Gate2: 0.004, Meas: 0.001},
			{Gate2: 0.002, Storage: 0.02}, {Gate2: 0.0005, Prep: 0.01, Storage: 0.0005},
		}
		flat(t, func(i int) {
			if _, err := VolumeMemory(code, 1+i%40, spacetime.Circuit(models[i/40]), toric.DecoderUnionFind, spacetime.DecodeOptions{}, lanes, uint64(i)); err != nil {
				t.Fatal(err)
			}
		})
	})
}
