package spacetime

import (
	"math"
	"math/rand/v2"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// scalarErasedShot simulates one erased noisy-extraction history with a
// plain RNG: per round, each edge leaks with probability pe (flipping
// with probability ½, horizontal edge erased), intact edges flip at p;
// measurements flip at q and are lost (replaced by a coin, vertical
// edge erased) at qe. Returns the accumulated error, defects, and the
// 3D erased edge ids of the requested sector.
func scalarErasedShot(v *Volume, rng *rand.Rand, p, q, pe, qe float64, dual bool) (bits.Vec, []int, []int) {
	lat := v.Lattice()
	cum := bits.NewVec(v.nq)
	prev := make([]bool, v.nc)
	cur := make([]bool, v.nc)
	var defects, erased []int
	syndrome := func(errs bits.Vec) []int {
		if dual {
			return lat.StarSyndrome(errs)
		}
		return lat.Syndrome(errs)
	}
	for t := 1; t <= v.T; t++ {
		for e := 0; e < v.nq; e++ {
			if rng.Float64() < pe {
				erased = append(erased, (t-1)*v.nq+e)
				if rng.Float64() < 0.5 {
					cum.Flip(e)
				}
			} else if rng.Float64() < p {
				cum.Flip(e)
			}
		}
		for c := range cur {
			cur[c] = false
		}
		for _, c := range syndrome(cum) {
			cur[c] = true
		}
		for c := 0; c < v.nc; c++ {
			if rng.Float64() < q {
				cur[c] = !cur[c]
			}
			if rng.Float64() < qe {
				erased = append(erased, v.horiz+(t-1)*v.nc+c)
				cur[c] = rng.Float64() < 0.5
			}
			if cur[c] != prev[c] {
				defects = append(defects, (t-1)*v.nc+c)
			}
		}
		prev, cur = cur, prev
	}
	for c := range cur {
		cur[c] = false
	}
	for _, c := range syndrome(cum) {
		cur[c] = true
	}
	for c := 0; c < v.nc; c++ {
		if cur[c] != prev[c] {
			defects = append(defects, v.T*v.nc+c)
		}
	}
	return cum, defects, erased
}

// TestErasedDecodeClearsProjectedSyndrome: with erasure seeding, the
// projected spatial correction still cancels the accumulated error's
// syndrome exactly, in both sectors.
func TestErasedDecodeClearsProjectedSyndrome(t *testing.T) {
	rng := rand.New(rand.NewPCG(601, 602))
	for _, cfg := range []struct {
		l, rounds    int
		p, q, pe, qe float64
	}{
		{3, 2, 0.03, 0.03, 0.1, 0.1},
		{4, 4, 0.02, 0.04, 0.15, 0.05},
		{5, 3, 0.0, 0.0, 0.2, 0.2},
	} {
		v := phenomVolume(toric.Cached(cfg.l), cfg.rounds, cfg.p+1e-3, cfg.q+1e-3)
		for trial := 0; trial < 50; trial++ {
			for _, dual := range []bool{false, true} {
				cum, defects, erased := scalarErasedShot(v, rng, cfg.p, cfg.q, cfg.pe, cfg.qe, dual)
				res := cum.Clone()
				scr := v.scratch.Get().(*volScratch)
				v.decodeInto(defects, erased, toric.DecoderUnionFind, dual, scr, res)
				v.scratch.Put(scr)
				var rest []int
				if dual {
					rest = v.Lattice().StarSyndrome(res)
				} else {
					rest = v.Lattice().Syndrome(res)
				}
				if len(rest) != 0 {
					t.Fatalf("L=%d T=%d dual=%v trial %d: projected residual has %d defects",
						cfg.l, cfg.rounds, dual, trial, len(rest))
				}
			}
		}
	}
}

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

// TestErasedMemoryDeterministic: the erased experiment is a pure
// function of (samples, seed).
func TestErasedMemoryDeterministic(t *testing.T) {
	run := func() Result { return toricErasedMemory(4, 3, 0.02, 0.02, 0.08, 0.08, 900, 617, true) }
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

// erasingFeed drains a source through its erased round whatever its
// rates: a drain reads NextLayersErased exactly when the feed is
// Erasing.
type erasingFeed struct{ LayerFeed }

func (erasingFeed) Erasing() bool { return true }

// TestErasedReducesToPlain: pe = qe = 0 erased decoding must behave like
// the plain experiment statistically (the draw streams differ, so the
// comparison is within Monte Carlo error). Memory refuses decode options
// on a model with no erasure channel, so the erased round is driven
// directly.
func TestErasedReducesToPlain(t *testing.T) {
	const samples = 4000
	v := phenomVolume(toric.Cached(4), 4, 0.03, 0.03)
	_, _, fa := frame.CountSectorFailures(samples, 619, func(lanes int, smp frame.Sampler) (bits.Vec, bits.Vec) {
		src := erasingFeed{surface.NewLayerSourceErased(toric.Cached(4), 0.03, 0.03, 0, 0, lanes, smp)}
		return v.BatchMemoryFrom(src, toric.DecoderUnionFind, DecodeOptions{ErasureAware: true})
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
	for _, opts := range []DecodeOptions{{ErasureAware: true}, {Correlated: true}} {
		if _, err := Memory(toric.Cached(4), 4, Phenomenological(0.02, 0.02, 0, 0), toric.DecoderUnionFind, opts, 64, 1); err == nil {
			t.Fatalf("opts=%+v accepted on a phenomenological model without an erasure channel", opts)
		}
		if _, err := Memory(toric.Cached(4), 4, Phenomenological(0.02, 0.02, 0.01, 0), toric.DecoderUnionFind, opts, 64, 1); err != nil {
			t.Fatalf("opts=%+v refused on a phenomenological model with leakage: %v", opts, err)
		}
	}
}
