package stream

import (
	"math/rand/v2"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
)

// TestSetIncrementalMidStreamToggle pins live mode flips: a decoder
// whose incremental slide is switched on and off between pushes must
// commit frames bit-identical to an always-from-scratch decoder on the
// same layer feed, at every push and after Finish. Flipping off must
// drop the retained forest (its guards would otherwise strip defects
// the plain slide expects to see); flipping back on must rebuild it
// from the next slide without replaying stale state. The sweep covers
// quiet through dense rates, both source models, and the white-box
// forest validator stays armed throughout.
func TestSetIncrementalMidStreamToggle(t *testing.T) {
	installIncrementalCheck(t)
	rng := rand.New(rand.NewPCG(8801, 8802))
	toggled := 0
	for trial := 0; trial < 10; trial++ {
		l := 3 + rng.IntN(3)
		window := 4 + rng.IntN(5)
		commit := 1 + rng.IntN(window-1)
		lanes := 17 + rng.IntN(80)
		rounds := 3*window + rng.IntN(3*window)
		p := []float64{0.003, 0.02, 0.05}[trial%3]
		workers := 1 + rng.IntN(3)
		seed := rng.Uint64()
		circuit := trial%2 == 1

		var st, sf *Session
		var feed func() spacetime.LayerFeed
		pool := decoder.NewPool(workers)
		if circuit {
			P := noise.Uniform(p)
			wh, wv, wd := spacetime.WeightsCircuit(P, l, window)
			st = mustCircuitSession(t, l, window, commit, wh, wv, wd)
			var err error
			sf, err = toricCircuitSessionOn(pool, l, window, commit, wh, wv, wd)
			if err != nil {
				t.Fatal(err)
			}
			feed = func() spacetime.LayerFeed {
				return toricCircuit(l, P, lanes, frame.NewAggregateSampler(seed, 5))
			}
		} else {
			wh, wv := spacetime.Weights(p, p, l, rounds)
			var err error
			st, err = toricSession(l, window, commit, wh, wv)
			if err != nil {
				t.Fatal(err)
			}
			sf, err = toricSessionOn(pool, l, window, commit, wh, wv)
			if err != nil {
				t.Fatal(err)
			}
			feed = func() spacetime.LayerFeed {
				return toricLayers(l, p, p, lanes, frame.NewAggregateSampler(seed, 5))
			}
		}
		sf.SetIncremental(false)
		srcT, srcF := feed(), feed()
		dt := st.NewDecoder(lanes)
		df := sf.NewDecoder(lanes)
		nc := st.win.nc
		ltx := bits.NewVecs(nc, lanes)
		ltz := bits.NewVecs(nc, lanes)
		lfx := bits.NewVecs(nc, lanes)
		lfz := bits.NewVecs(nc, lanes)
		compare := func(stage string, r int) {
			t.Helper()
			cxt, czt := dt.Corrections()
			cxf, czf := df.Corrections()
			for lane := 0; lane < lanes; lane++ {
				if !cxt[lane].Equal(cxf[lane]) || !czt[lane].Equal(czf[lane]) {
					t.Fatalf("trial %d %s round %d: lane %d frames diverge after toggles", trial, stage, r, lane)
				}
				if !dt.sx.carry[lane].Equal(df.sx.carry[lane]) || !dt.sz.carry[lane].Equal(df.sz.carry[lane]) {
					t.Fatalf("trial %d %s round %d: lane %d carries diverge after toggles", trial, stage, r, lane)
				}
			}
		}
		on := true
		for r := 0; r < rounds; r++ {
			if rng.IntN(3) == 0 {
				on = !on
				dt.SetIncremental(on)
				toggled++
			}
			srcT.NextLayers(ltx, ltz)
			srcF.NextLayers(lfx, lfz)
			dt.Push(ltx, ltz)
			df.Push(lfx, lfz)
			compare("push", r)
		}
		srcT.CloseLayers(ltx, ltz)
		srcF.CloseLayers(lfx, lfz)
		dt.Finish(ltx, ltz)
		df.Finish(lfx, lfz)
		if dt.Err() != nil || df.Err() != nil {
			t.Fatalf("trial %d: decoder error: %v / %v", trial, dt.Err(), df.Err())
		}
		compare("finish", rounds)
		st.Close()
		pool.Close()
	}
	if toggled == 0 {
		t.Fatal("no trial ever toggled mid-stream")
	}
}
