package spacetime

import (
	"math/rand/v2"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/toric"
)

// scalarErasedShot simulates one erased noisy-extraction history with a
// plain RNG: per round, each edge leaks with probability pe (flipping
// with probability ½, horizontal edge erased), intact edges flip at p;
// measurements flip at q and are lost (replaced by a coin, vertical
// edge erased) at qe. Returns the accumulated error, defects, and the
// 3D erased edge ids of the requested sector.
func scalarErasedShot(v *Volume, rng *rand.Rand, p, q, pe, qe float64, dual bool) (bits.Vec, []int, []int) {
	lat := v.lat
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
				res.Xor(v.Decode(defects, erased, toric.DecoderUnionFind, dual))
				var rest []int
				if dual {
					rest = v.lat.StarSyndrome(res)
				} else {
					rest = v.lat.Syndrome(res)
				}
				if len(rest) != 0 {
					t.Fatalf("L=%d T=%d dual=%v trial %d: projected residual has %d defects",
						cfg.l, cfg.rounds, dual, trial, len(rest))
				}
			}
		}
	}
}
