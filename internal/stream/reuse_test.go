package stream

import (
	"slices"
	"testing"

	"ftqc/internal/bits"
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
	if era, ok := src.(spacetime.ErasedLayerFeed); ok && opts != (spacetime.DecodeOptions{}) {
		o.failX, o.failZ = s.BatchErasedFrom(era, rounds, opts)
	} else {
		o.failX, o.failZ = s.BatchMemoryFrom(src, rounds)
	}
	d := s.free[len(s.free)-1]
	o.corrX, o.corrZ = d.Corrections()
	o.slides, o.defects = d.Slides(), d.DefectsObserved()
	for _, sec := range [2]*sectorState{&d.sx, &d.sz} {
		if d.sectorQuiet(sec, nil) {
			o.silent++ // the skip test the next decode of this ring would pass
		}
	}
	return o, d
}

func sameOutcome(a, b drainOutcome) bool {
	return a.failX.Equal(b.failX) && a.failZ.Equal(b.failZ) &&
		slices.EqualFunc(a.corrX, b.corrX, bits.Vec.Equal) && slices.EqualFunc(a.corrZ, b.corrZ, bits.Vec.Equal) &&
		a.slides == b.slides && a.silent == b.silent && a.defects == b.defects
}

// TestReusedDecoderMatchesFresh pushes a sequence of feeds through one
// session's drain — each drain resetting the decoder an earlier one left
// — and demands of every drain exactly what a fresh decoder on a new
// session gives for the same feed: failure masks, committed frames,
// slides, defects observed and the silent-sector test its rings pass
// afterwards (a stale quiet flag fails it). The sequence covers
// a long stream (several slides), a silent stream that leaves every
// quiet flag set, short W > T streams with unfilled ring slots (one
// silent enough to skip its closing decode), a decoder abandoned
// mid-stream with carries pending, and plain and erasure-aware decoders,
// whose options differ and which must never be handed to each other.
func TestReusedDecoderMatchesFresh(t *testing.T) {
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
		return surface.NewCircuitSourceErased(code, leaky, lanes, frame.NewAggregateSampler(seed, 1))
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
			d := s.takeDecoder(lanes, step.opts)
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
			s.putDecoder(d)
		}
		got, d := drainOnce(s, step.feed(seed), step.rounds, step.opts)
		if len(s.free) != 1 {
			t.Fatalf("%s: %d decoders on the free list after sequential drains", step.name, len(s.free))
		}
		if (d == prev) != step.reused {
			t.Fatalf("%s: decoder reused = %v, want %v", step.name, d == prev, step.reused)
		}
		ref := NewSessionOn(s.pool, s.Window())
		want, _ := drainOnce(ref, step.feed(seed), step.rounds, step.opts)
		ref.Close()
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
