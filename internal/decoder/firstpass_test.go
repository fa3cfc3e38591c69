package decoder

import (
	"math/rand/v2"
	"slices"
	"testing"

	"ftqc/internal/bits"
)

// TestPoolTakesGivenFirstPass pins which path a pool worker decodes a
// shot on. A plain shot past the density rule that carries its swept
// first pass — in its correction buffer, as the stream hands it over —
// decodes given: the worker's scratch ends with the given decode's dirty
// list, which lacks the edges only the first pass touched. The same shot
// with erased edges walks its first pass and ignores the list. Every
// correction equals AppendCorrection's.
func TestPoolTakesGivenFirstPass(t *testing.T) {
	g := torusTestGraph(6) // 36 nodes: any defect is past the density rule
	pool := NewPool(1)
	defer pool.Close()
	shots := randomShots(g, 40, rand.New(rand.NewPCG(45, 46)))
	layers := [][]bits.Vec{bits.NewVecs(g.Nodes(), len(shots))}
	for lane, s := range shots {
		for _, v := range s.Defects {
			layers[0][v].Set(lane, true)
		}
	}
	first := make([][]int32, len(shots))
	g.AppendFirstPasses(first, layers)
	given, walked := NewUnionFind(g), NewUnionFind(g)
	b := NewBatch(1)
	shorter := 0
	for lane, s := range shots {
		for i, erased := range [][]int{nil, s.Erased} {
			if len(s.Defects) == 0 || i == 1 && len(erased) == 0 {
				continue
			}
			buf := slices.Clone(first[lane])
			shot := Shot{Defects: s.Defects, Erased: erased, CorrBuf: buf, FirstPass: buf}
			if err := pool.ResubmitOn(g, b, []Shot{shot}); err != nil {
				t.Fatal(err)
			}
			got := b.Wait()[0]
			want := walked.AppendCorrection(nil, s.Defects, erased)
			ref := walked
			if erased == nil {
				given.appendGiven(nil, s.Defects, first[lane])
				ref = given
				if len(given.dirty) < len(walked.dirty) {
					shorter++
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("lane %d (erased %v): pool %v, AppendCorrection %v", lane, erased, got, want)
			}
			if w := pool.scratch[0]; !slices.Equal(w.dirty, ref.dirty) {
				t.Fatalf("lane %d (erased %v): worker's dirty list %v, want %v", lane, erased, w.dirty, ref.dirty)
			}
		}
	}
	if shorter == 0 {
		t.Fatal("degenerate: no given decode skipped a first-pass edge")
	}
}
