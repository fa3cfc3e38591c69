package spacetime_test

import (
	"math"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// TestPureErasureDecodesNearPerfectly: when every fault is located
// (p = q = 0), moderate erasure rates decode almost without failure —
// the peeling pass corrects known-bad locations outright.
func TestPureErasureDecodesNearPerfectly(t *testing.T) {
	const samples = 3000
	r := toricErasedMemory(6, 6, 0, 0, 0.10, 0.10, samples, 611, true)
	if rate := r.FailRate(); rate > 0.02 {
		t.Fatalf("pure erasure at pe=qe=0.10 failed %.4f of shots", rate)
	}
}

// TestErasureAwareBeatsBlind: at matched noise (identical histories),
// handing the decoder the erased locations must lower the logical
// failure rate well beyond statistical error.
func TestErasureAwareBeatsBlind(t *testing.T) {
	const samples = 4000
	aware := toricErasedMemory(6, 6, 0.01, 0.01, 0.12, 0.12, samples, 613, true)
	blind := toricErasedMemory(6, 6, 0.01, 0.01, 0.12, 0.12, samples, 613, false)
	fa, fb := aware.FailRate(), blind.FailRate()
	sigma := math.Sqrt(fa*(1-fa)/samples + fb*(1-fb)/samples)
	if fa >= fb-2*sigma {
		t.Fatalf("erasure awareness did not help: aware %.4f vs blind %.4f (sigma %.4f)", fa, fb, sigma)
	}
}

// erasingFeed drains a source through its erased round whatever its
// rates: a drain reads NextLayersErased exactly when the feed is
// Erasing.
type erasingFeed struct{ spacetime.LayerFeed }

func (erasingFeed) Erasing() bool { return true }

// TestErasedReducesToPlain: pe = qe = 0 erased decoding must behave like
// the plain experiment statistically (the draw streams differ, so the
// comparison is within Monte Carlo error). VolumeMemory refuses decode
// options on a model with no erasure channel, so the erased round is
// driven directly, through a never-sliding stream.
func TestErasedReducesToPlain(t *testing.T) {
	const samples = 4000
	s := wholeVolumeSession(t, toric.Cached(4), 4, spacetime.Phenomenological(0.03, 0.03, 0, 0))
	defer s.Close()
	_, _, fa := frame.CountSectorFailures(samples, 619, func(lanes int, smp frame.Sampler) (bits.Vec, bits.Vec) {
		src := erasingFeed{surface.NewLayerSourceErased(toric.Cached(4), 0.03, 0.03, 0, 0, lanes, smp)}
		return s.BatchMemoryFrom(src, 4, spacetime.DecodeOptions{ErasureAware: true})
	})
	pl := toricMemory(4, 4, 0.03, 0.03, toric.DecoderUnionFind, samples, 620)
	fe, fp := float64(fa)/samples, pl.FailRate()
	sigma := math.Sqrt(fe*(1-fe)/samples + fp*(1-fp)/samples)
	if diff := math.Abs(fe - fp); diff > 4*sigma+0.01 {
		t.Fatalf("pe=qe=0 erased %.4f vs plain %.4f (diff %.4f > %.4f)", fe, fp, diff, 4*sigma+0.01)
	}
}

// TestMemoryRefusesOptionsWithoutErasure: decode options on a
// phenomenological model with no erasure channel are a constructor
// error. Its source is not Erasing, so the options would have nothing to
// act on; with an erasure channel they are accepted.
func TestMemoryRefusesOptionsWithoutErasure(t *testing.T) {
	for _, opts := range []spacetime.DecodeOptions{{ErasureAware: true}, {Correlated: true}} {
		if _, err := stream.VolumeMemory(toric.Cached(4), 4, spacetime.Phenomenological(0.02, 0.02, 0, 0), toric.DecoderUnionFind, opts, 64, 1); err == nil {
			t.Fatalf("opts=%+v accepted on a phenomenological model without an erasure channel", opts)
		}
		if _, err := stream.VolumeMemory(toric.Cached(4), 4, spacetime.Phenomenological(0.02, 0.02, 0.01, 0), toric.DecoderUnionFind, opts, 64, 1); err != nil {
			t.Fatalf("opts=%+v refused on a phenomenological model with leakage: %v", opts, err)
		}
	}
}
