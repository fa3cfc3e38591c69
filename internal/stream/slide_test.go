package stream

import (
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/toric"
)

// TestIncrementalQuietStream pins a silent stream's slides: with no
// defects anywhere every window is silent and decodes to nothing (no
// defects observed, frames empty), and the counters advance as on any
// other stream.
func TestIncrementalQuietStream(t *testing.T) {
	l := 4
	s, err := toricSession(l, 6, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lanes := 64
	lat := toric.Cached(l)
	zeroX := bits.NewVecs(lat.Checks(), lanes)
	zeroZ := bits.NewVecs(lat.Checks(), lanes)
	d := s.NewDecoder(lanes)
	for r := 0; r < 40; r++ {
		if d.Filled() == 6 && !(silentWindow(d, &d.sx) && silentWindow(d, &d.sz)) {
			t.Fatalf("round %d: a window of a silent stream is not silent", r)
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
