package stream

import (
	"math/rand/v2"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/toric"
)

// driveBoth streams the same layer feed through an incremental and a
// from-scratch decoder in lockstep, comparing committed frames and
// carries after every push and after Finish. Returns the incremental
// decoder's slide count so callers can assert the stream actually slid.
func driveBoth(t *testing.T, tag string, si, sf *Session, feed func() spacetime.LayerFeed, rounds, lanes int) int {
	t.Helper()
	si.SetIncremental(true)
	sf.SetIncremental(false)
	srcI, srcF := feed(), feed()
	di := si.NewDecoder(lanes)
	df := sf.NewDecoder(lanes)
	nc := si.win.nc
	lx1 := bits.NewVecs(nc, lanes)
	lz1 := bits.NewVecs(nc, lanes)
	lx2 := bits.NewVecs(nc, lanes)
	lz2 := bits.NewVecs(nc, lanes)
	compare := func(stage string) {
		t.Helper()
		cxi, czi := di.Corrections()
		cxf, czf := df.Corrections()
		for lane := 0; lane < lanes; lane++ {
			if !cxi[lane].Equal(cxf[lane]) || !czi[lane].Equal(czf[lane]) {
				t.Fatalf("%s: %s: lane %d committed frames diverge (slides=%d)", tag, stage, lane, di.Slides())
			}
			if !di.sx.carry[lane].Equal(df.sx.carry[lane]) || !di.sz.carry[lane].Equal(df.sz.carry[lane]) {
				t.Fatalf("%s: %s: lane %d carries diverge (slides=%d)", tag, stage, lane, di.Slides())
			}
		}
		if di.DefectsObserved() != df.DefectsObserved() {
			t.Fatalf("%s: %s: defect counters diverge (%d vs %d)", tag, stage, di.DefectsObserved(), df.DefectsObserved())
		}
	}
	for r := 0; r < rounds; r++ {
		srcI.NextLayers(lx1, lz1)
		srcF.NextLayers(lx2, lz2)
		di.Push(lx1, lz1)
		df.Push(lx2, lz2)
		compare("push")
	}
	srcI.CloseLayers(lx1, lz1)
	srcF.CloseLayers(lx2, lz2)
	di.Finish(lx1, lz1)
	df.Finish(lx2, lz2)
	if di.Err() != nil || df.Err() != nil {
		t.Fatalf("%s: decoder error: %v / %v", tag, di.Err(), df.Err())
	}
	compare("finish")
	return di.Slides()
}

// TestIncrementalMatchesFromScratch is the cross-implementation pin of
// the incremental slide: persistent cluster forests, the sparse
// quiet-window skip, and the guard-conflict fallback must commit
// frames bit-identical to the plain from-scratch slide on the same
// layer feed — phenomenological and circuit-level, across window
// shapes, error rates (quiet regions through threshold), lane counts
// and worker counts.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewPCG(4501, 4502))
	slid := 0
	for trial := 0; trial < 14; trial++ {
		l := 3 + rng.IntN(3)
		rounds := 2 + rng.IntN(14)
		window := 2 + rng.IntN(8)
		commit := 1 + rng.IntN(window-1)
		lanes := 33 + rng.IntN(96)
		seed := rng.Uint64()
		// Sweep quiet regions (sparse path), moderate rates (forest
		// retention), near-threshold (conflict fallback) and the dense
		// regime past threshold, where warm-start retention carries a
		// sizeable fraction of the window and release waves fire.
		p := []float64{0.0002, 0.004, 0.012, 0.025, 0.05}[trial%5]
		workers := 1 + rng.IntN(4)
		circuit := trial%2 == 1
		if circuit {
			P := noise.Uniform(p)
			wh, wv, wd := spacetime.WeightsCircuit(P, l, window)
			si := mustCircuitSession(t, l, window, commit, wh, wv, wd)
			pool := decoder.NewPool(workers)
			sf, err := toricCircuitSessionOn(pool, l, window, commit, wh, wv, wd)
			if err != nil {
				t.Fatal(err)
			}
			slid += driveBoth(t, "circuit", si, sf, func() spacetime.LayerFeed {
				return toricCircuit(l, P, lanes, frame.NewAggregateSampler(seed, 5))
			}, rounds, lanes)
			si.Close()
			pool.Close()
		} else {
			wh, wv := spacetime.Weights(p, p, l, rounds)
			si, err := toricSession(l, window, commit, wh, wv)
			if err != nil {
				t.Fatal(err)
			}
			pool := decoder.NewPool(workers)
			sf, err := toricSessionOn(pool, l, window, commit, wh, wv)
			if err != nil {
				t.Fatal(err)
			}
			slid += driveBoth(t, "phenomenological", si, sf, func() spacetime.LayerFeed {
				return toricLayers(l, p, p, lanes, frame.NewAggregateSampler(seed, 5))
			}, rounds, lanes)
			si.Close()
			pool.Close()
		}
	}
	if slid == 0 {
		t.Fatal("no trial ever slid its window — the incremental path was not exercised")
	}
}

// TestRewindowDropsForestCleanly pins the Rewindow × incremental
// contract: transplanting a live incremental decoder onto a new window
// shape drops the cluster cache (its ids live in the old coordinate
// system) and the replayed layers rebuild the forest from scratch — the
// committed frames must stay bit-identical to a from-scratch decoder
// performing the identical rewindow on the identical stream, at every
// push and after Finish.
func TestRewindowDropsForestCleanly(t *testing.T) {
	installIncrementalCheck(t)
	rng := rand.New(rand.NewPCG(4701, 4702))
	for trial := 0; trial < 8; trial++ {
		l := 3 + rng.IntN(3)
		lanes := 33 + rng.IntN(64)
		// 0.05 is past threshold: the pre-rewindow decoder carries a
		// dense retained forest, not the sparse-regime remnants the
		// original sweep stopped at.
		p := []float64{0.001, 0.01, 0.03, 0.05}[trial%4]
		w1 := 4 + rng.IntN(4)
		c1 := 1 + rng.IntN(w1-1)
		w2 := 4 + rng.IntN(6)
		c2 := 1 + rng.IntN(w2-1)
		pre := w1 + 1 + rng.IntN(2*w1) // past the first slide: a live cache exists
		post := w2 + rng.IntN(2*w2)
		seed := rng.Uint64()
		wh, wv := spacetime.Weights(p, p, l, w1+w2)

		liveCaches := 0
		arm := func(incremental bool) (x, z []bits.Vec) {
			s1, err := toricSession(l, w1, c1, wh, wv)
			if err != nil {
				t.Fatal(err)
			}
			defer s1.Close()
			s2, err := toricSession(l, w2, c2, wh, wv)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			s1.SetIncremental(incremental)
			s2.SetIncremental(incremental)
			src := toricLayers(l, p, p, lanes, frame.NewAggregateSampler(seed, 3))
			nc := s1.win.nc
			lx := bits.NewVecs(nc, lanes)
			lz := bits.NewVecs(nc, lanes)
			d := s1.NewDecoder(lanes)
			for r := 0; r < pre; r++ {
				src.NextLayers(lx, lz)
				d.Push(lx, lz)
			}
			if incremental {
				for lane := 0; lane < lanes; lane++ {
					liveCaches += d.sx.cacheLen(lane) + d.sz.cacheLen(lane)
				}
			}
			nd, err := d.Rewindow(s2)
			if err != nil {
				t.Fatalf("trial %d: rewindow: %v", trial, err)
			}
			for r := 0; r < post; r++ {
				src.NextLayers(lx, lz)
				nd.Push(lx, lz)
			}
			src.CloseLayers(lx, lz)
			nd.Finish(lx, lz)
			if nd.Err() != nil {
				t.Fatalf("trial %d: %v", trial, nd.Err())
			}
			if nd.Committed() != pre+post {
				t.Fatalf("trial %d: committed %d of %d rounds", trial, nd.Committed(), pre+post)
			}
			return nd.Corrections()
		}
		xi, zi := arm(true)
		xf, zf := arm(false)
		for lane := 0; lane < lanes; lane++ {
			if !xi[lane].Equal(xf[lane]) || !zi[lane].Equal(zf[lane]) {
				t.Fatalf("trial %d lane %d: rewindowed incremental diverges from from-scratch", trial, lane)
			}
		}
		// The dense trials must actually move a live forest: a retaining
		// window past threshold that rewindows with an empty cache means
		// the scenario under test never happened.
		if p >= 0.05 && liveCaches == 0 {
			d := s1Retains(t, l, w1, c1, wh, wv)
			if d {
				t.Fatalf("trial %d: dense rewindow never carried a live retained forest", trial)
			}
		}
	}
}

// s1Retains reports whether the (w1, c1) window shape admits a
// retention band at all — shapes that don't legitimately rewindow with
// an empty cache.
func s1Retains(t *testing.T, l, w, c, wh, wv int) bool {
	t.Helper()
	s, err := toricSession(l, w, c, wh, wv)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := s.NewDecoder(1)
	return d.retain
}

// TestIncrementalQuietStream pins the sparse fast path's behavior on a
// silent stream: with no defects anywhere the slide must skip its
// decodes outright (no defects observed, frames empty), yet counters
// must advance exactly as if every window had been decoded.
func TestIncrementalQuietStream(t *testing.T) {
	l := 4
	s, err := toricSession(l, 6, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lanes := 64
	lat := toric.Cached(l)
	zeroX := bits.NewVecs(lat.NumChecks(), lanes)
	zeroZ := bits.NewVecs(lat.NumChecks(), lanes)
	d := s.NewDecoder(lanes)
	for r := 0; r < 40; r++ {
		d.Push(zeroX, zeroZ)
	}
	d.Finish(zeroX, zeroZ)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.DefectsObserved() != 0 {
		t.Fatalf("quiet stream observed %d defects", d.DefectsObserved())
	}
	if d.Committed() != 40 {
		t.Fatalf("quiet stream committed %d of 40 rounds", d.Committed())
	}
	if got := d.Slides(); got != (40-6)/3+1 {
		t.Fatalf("quiet stream slid %d times", got)
	}
	corrX, corrZ := d.Corrections()
	for lane := 0; lane < lanes; lane++ {
		if corrX[lane].Any() || corrZ[lane].Any() {
			t.Fatalf("quiet stream committed a correction in lane %d", lane)
		}
	}
}
