package stream

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// pivotLists is the route the slide took before it read its lists off
// the planes: the buffered layers in logical order, then the closing
// planes, transposed into one syndrome vector per lane, the carry XORed
// in at the base layer, and AppendSupport per lane.
func pivotLists(d *Decoder, sec *sectorState, h int, closing []bits.Vec) [][]int {
	var ordered []bits.Vec
	for t := 0; t < h; t++ {
		slot := (d.head + t) % d.win.W
		ordered = append(ordered, sec.ring[slot*d.nc:(slot+1)*d.nc]...)
	}
	ordered = append(ordered, closing...)
	syn := bits.NewVecs(d.lanes, len(ordered))
	bits.TransposePlanes(syn, ordered)
	lists := make([][]int, d.lanes)
	for lane := range lists {
		for _, c := range sec.carry[lane].Support() {
			syn[lane].Flip(c)
		}
		lists[lane] = syn[lane].Support()
	}
	return lists
}

// TestDefectListsMatchPivot fills a decoder's rings and carries at
// random — every head position, a full window (a slide: h = W, no
// closing planes) and short tails with closing planes (Finish: h < W),
// lane counts around the word size, check counts off the word size —
// and demands from defectLists exactly the lists the pivot built.
func TestDefectListsMatchPivot(t *testing.T) {
	codes := []surface.Code{toric.Cached(4), toric.Cached(5), surface.Rotated(5), toric.Cached(9)}
	for _, code := range codes {
		for _, lanes := range []int{1, 64, 100, 128} {
			t.Run(fmt.Sprintf("%s/d=%d/lanes=%d", code.CodeName(), code.Distance(), lanes), func(t *testing.T) {
				const w = 6
				s, err := NewCodeSession(code, w, 3, 1, 1)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				d := s.NewDecoder(lanes)
				rng := rand.New(rand.NewPCG(77, uint64(lanes)))
				sparse := func(v bits.Vec, density float64) {
					v.Clear()
					for i := 0; i < v.Len(); i++ {
						if rng.Float64() < density {
							v.Flip(i)
						}
					}
				}
				closing := bits.NewVecs(d.nc, lanes)
				defects := 0
				for trial := 0; trial < 40; trial++ {
					for _, sec := range [2]*sectorState{&d.sx, &d.sz} {
						density := []float64{0, 0.01, 0.2}[rng.IntN(3)]
						for _, v := range sec.ring {
							sparse(v, density)
						}
						for _, v := range sec.carry {
							sparse(v, []float64{0, 0.1}[rng.IntN(2)])
						}
						for _, v := range closing {
							sparse(v, density)
						}
						d.head = rng.IntN(w)
						h, cl := w, []bits.Vec(nil)
						if trial%2 == 1 {
							h, cl = 1+rng.IntN(w-1), closing
						}
						want := pivotLists(d, sec, h, cl)
						d.defectLists(sec, h, cl)
						for lane := range want {
							got := d.defbuf[lane]
							if !slices.Equal(got, want[lane]) {
								t.Fatalf("trial %d lane %d (head %d, h %d): list %v, pivot %v", trial, lane, d.head, h, got, want[lane])
							}
							defects += len(got)
						}
					}
				}
				if defects == 0 {
					t.Fatal("degenerate: no defects")
				}
			})
		}
	}
}
