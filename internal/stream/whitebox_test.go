package stream

import (
	"testing"

	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
)

// TestIncrementalWhiteBoxCircuit runs the circuit-level stream with the
// white-box validator installed: on every incremental slide, each
// lane's (active ∪ cached) correction is diffed edge-by-edge against a
// from-scratch union-find decode of the identical window syndrome. This
// catches retention bugs that happen to cancel in the committed frames
// (the black-box lockstep test) but leave the in-window forest wrong.
func TestIncrementalWhiteBoxCircuit(t *testing.T) {
	installIncrementalCheck(t)
	l, rounds := 4, 16
	window, commit := 8, 4
	// 0.005 is the sustained operating point; 0.025 sits past threshold,
	// where warm-start seeding carries dense forests and the guard
	// fallback and release waves fire — the regime the sub-window
	// re-decode must keep bit-exact.
	for _, eps := range []float64{0.005, 0.025} {
		P := noise.Uniform(eps)
		wh, wv, wd := spacetime.WeightsCircuit(P, l, window)
		for stream := uint64(0); stream < 8; stream++ {
			si := mustCircuitSession(t, l, window, commit, wh, wv, wd)
			pool := decoder.NewPool(1)
			sf, err := toricCircuitSessionOn(pool, l, window, commit, wh, wv, wd)
			if err != nil {
				t.Fatal(err)
			}
			driveBoth(t, "whitebox", si, sf, func() spacetime.LayerFeed {
				return toricCircuit(l, P, 64, frame.NewAggregateSampler(959, stream))
			}, rounds, 64)
			si.Close()
			pool.Close()
		}
	}
}
