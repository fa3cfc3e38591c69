package stream

import (
	"math/rand/v2"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/spacetime"
	"ftqc/internal/toric"
)

// TestRewindowSameShapeIsNoOp pins the Rewindow transplant itself: a
// decoder moved mid-stream onto a second session of the identical
// window shape (its own pool, another worker count) carries base,
// carry, frames, counters and the buffered layers across exactly — so
// from that push on it commits bit for bit what a decoder that was
// never moved commits, at every push and after Finish.
func TestRewindowSameShapeIsNoOp(t *testing.T) {
	rng := rand.New(rand.NewPCG(4701, 4702))
	for trial := 0; trial < 8; trial++ {
		l := 3 + rng.IntN(3)
		lanes := 33 + rng.IntN(64)
		p := []float64{0.001, 0.01, 0.03, 0.05}[trial%4]
		w := 4 + rng.IntN(4)
		c := 1 + rng.IntN(w-1)
		pre := 1 + rng.IntN(3*w) // before, at and past the first slides
		post := w + rng.IntN(2*w)
		seed := rng.Uint64()
		wh, wv := spacetime.Weights(p, p, l, 2*w)

		s1, err := toricSession(l, w, c, wh, wv)
		if err != nil {
			t.Fatal(err)
		}
		pool := decoder.NewPool(1 + rng.IntN(3))
		s2, err := toricSessionOn(pool, l, w, c, wh, wv)
		if err != nil {
			t.Fatal(err)
		}
		src := toricLayers(l, p, p, lanes, frame.NewAggregateSampler(seed, 3))
		nc := s1.win.nc
		lx := bits.NewVecs(nc, lanes)
		lz := bits.NewVecs(nc, lanes)
		stay := s1.NewDecoder(lanes)
		move := s1.NewDecoder(lanes)
		compare := func(stage string) {
			t.Helper()
			xs, zs := stay.Corrections()
			xm, zm := move.Corrections()
			for lane := 0; lane < lanes; lane++ {
				if !xs[lane].Equal(xm[lane]) || !zs[lane].Equal(zm[lane]) {
					t.Fatalf("trial %d %s: lane %d frames diverge after a same-shape rewindow", trial, stage, lane)
				}
				if !stay.sx.carry[lane].Equal(move.sx.carry[lane]) || !stay.sz.carry[lane].Equal(move.sz.carry[lane]) {
					t.Fatalf("trial %d %s: lane %d carries diverge after a same-shape rewindow", trial, stage, lane)
				}
			}
			if stay.Committed() != move.Committed() || stay.Slides() != move.Slides() || stay.DefectsObserved() != move.DefectsObserved() {
				t.Fatalf("trial %d %s: counters diverge: committed %d/%d slides %d/%d defects %d/%d", trial, stage,
					stay.Committed(), move.Committed(), stay.Slides(), move.Slides(), stay.DefectsObserved(), move.DefectsObserved())
			}
		}
		for r := 0; r < pre+post; r++ {
			if r == pre {
				if move, err = move.Rewindow(s2); err != nil {
					t.Fatalf("trial %d: rewindow: %v", trial, err)
				}
				compare("rewindow")
			}
			src.NextLayers(lx, lz)
			stay.Push(lx, lz)
			move.Push(lx, lz)
			compare("push")
		}
		src.CloseLayers(lx, lz)
		stay.Finish(lx, lz)
		move.Finish(lx, lz)
		if stay.Err() != nil || move.Err() != nil {
			t.Fatalf("trial %d: decoder error: %v / %v", trial, stay.Err(), move.Err())
		}
		compare("finish")
		s1.Close()
		pool.Close()
	}
}

// TestIncrementalQuietStream pins the silent-sector skip's behavior on a
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
		if d.Filled() == 6 && !(d.sectorQuiet(&d.sx) && d.sectorQuiet(&d.sz)) {
			t.Fatalf("round %d: a silent window is not skippable", r)
		}
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
