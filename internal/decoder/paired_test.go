package decoder

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// PairedMatchesFull decodes defects by the isolated-pair path on pu and
// by the full path on fu and reports the first difference — correction
// (emit order included) or sweep count — or nil. The pair path appends
// behind a sentinel, which it must leave alone. It is exported for
// TestGoldenKernel, whose windows come from the stream package, which
// imports this one.
func PairedMatchesFull(pu, fu *UnionFind, defects []int) error {
	got := pu.appendPaired([]int32{-7}, defects)
	want := fu.appendFull(nil, defects, nil)
	if got[0] != -7 || !slices.Equal(got[1:], want) || pu.sweeps != fu.sweeps {
		return fmt.Errorf("defects %v: pair path %v in %d sweeps, full decode %v in %d",
			defects, got[1:], pu.sweeps, want, fu.sweeps)
	}
	return nil
}

// pairOutcome reports what the last non-empty appendPaired on u did: how
// many isolated pairs it took out, and whether the rest reached one so
// the decode fell back to appendFull (which opened an epoch after the
// marks).
func pairOutcome(u *UnionFind) (pairs int, fellBack bool) {
	if len(u.pairs) == 0 {
		return 0, false
	}
	return len(u.pairs), u.mark[u.pairs[0].parentNode]>>1 != u.epoch
}

// TestPairedDecodeMatchesFull holds the isolated-pair path to the full
// decode on every input, past the density rule that gates it in
// AppendCorrection: seeded syndromes at 0.1–10 % defect density on open
// and closed, unit and mixed-weight graphs, then crafted rows for each
// condition the path's exactness rests on. (TestGoldenKernel runs the
// same comparison on its window graphs.)
func TestPairedDecodeMatchesFull(t *testing.T) {
	t.Run("densities", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(2601, 2602))
		var taken, fellBack, withRest int
		for _, c := range []struct {
			name string
			g    *Graph
		}{
			{"slab-unit", slabGraph(8, 8, 1, 1)},
			{"slab-2-3", slabGraph(8, 8, 2, 3)},
			{"torus-unit", weightedTorusGraph(16, func(int) int32 { return 1 })},
			{"torus-2-3-4", weightedTorusGraph(16, func(e int) int32 { return 2 + int32(e*7%5)%3 })},
		} {
			g := c.g
			pu, fu := NewUnionFind(g), NewUnionFind(g)
			for _, density := range []float64{0.001, 0.003, 0.01, 0.03, 0.1} {
				rate := density * float64(g.Nodes()) / float64(2*g.Edges())
				for shot := 0; shot < 300; shot++ {
					faults := map[int]bool{}
					for e := 0; e < g.Edges(); e++ {
						if rng.Float64() < rate {
							faults[e] = true
						}
					}
					defects := offBoundary(g, syndromeOf(g, faults))
					rng.Shuffle(len(defects), func(i, j int) { defects[i], defects[j] = defects[j], defects[i] })
					if err := PairedMatchesFull(pu, fu, defects); err != nil {
						t.Fatalf("%s at %g: %v", c.name, density, err)
					}
					if n, back := pairOutcome(pu); len(defects) > 0 && n > 0 {
						taken++
						switch {
						case back:
							fellBack++
						case 2*n < len(defects):
							withRest++
						}
					}
				}
			}
		}
		if taken == 0 || fellBack == 0 || withRest == 0 {
			t.Fatalf("pairs taken in %d decodes, %d fell back, %d grew a rest beside them: every arm must be reached", taken, fellBack, withRest)
		}
	})

	// The slab's top layer (nodes 16–31 of slabGraph(4, 2, …)) grounds on
	// boundary node 32; torusGraph(8) nodes 40 and 41 are neighbours, 0
	// and 2 two steps apart.
	for _, c := range []struct {
		name     string
		g        *Graph
		defects  []int
		pairs    int
		fellBack bool
	}{
		// 0—1—2—3—4—5: the rest {0, 5} grows through 1 and 4 into the
		// pair's edges, which the full decode had half-grown in its first
		// pass — the rest alone would cross them two sweeps later.
		{"rest-reaches-pair", pathGraph(6), []int{0, 2, 3, 5}, 1, true},
		// Two slots of 0 reach 1, so {0, 1} is no isolated pair; the full
		// decode emits the lower-numbered light edge.
		{"parallel-light", NewGraph(4, [][2]int32{{0, 1}, {0, 1}, {1, 2}, {2, 3}, {3, 0}}, nil, nil), []int{0, 1}, 0, false},
		{"parallel-heavy-first", NewGraph(4, [][2]int32{{0, 1}, {0, 1}, {1, 2}, {2, 3}, {3, 0}}, []int32{2, 1, 1, 1, 1}, nil), []int{1, 0}, 0, false},
		// A weight-3 edge needs three sweeps; the detour closes first.
		{"pair-edge-heavy", NewGraph(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, []int32{1, 3, 1, 1}, nil), []int{1, 2}, 0, false},
		{"beside-boundary", slabGraph(4, 2, 1, 1), []int{17, 16}, 1, false},
		{"beside-boundary-with-rest", slabGraph(4, 2, 1, 1), []int{10, 16, 17}, 1, false},
		// Every defect paired: one folded pass of wmin = 2 sweeps.
		{"all-pairs", slabGraph(8, 4, 2, 3), []int{37, 0, 179, 1, 36, 178}, 3, false},
		// The pair roots at 41, its first defect, ahead of the rest's
		// tree — not at 40, its smaller id, behind it.
		{"non-ascending", torusGraph(8), []int{41, 0, 2, 40}, 1, false},
		{"non-ascending-rest-first", torusGraph(8), []int{2, 41, 0, 40}, 1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			pu, fu := NewUnionFind(c.g), NewUnionFind(c.g)
			if err := PairedMatchesFull(pu, fu, c.defects); err != nil {
				t.Fatal(err)
			}
			if n, back := pairOutcome(pu); n != c.pairs || back != c.fellBack {
				t.Fatalf("took %d pairs (fell back: %v), want %d (%v)", n, back, c.pairs, c.fellBack)
			}
		})
	}

	t.Run("bad-input-panics", func(t *testing.T) {
		// pathGraph(6, 1, 5)'s boundary node 1 is not its highest id, and
		// {1, 2} would be an isolated pair if it were no boundary node.
		for _, c := range []struct {
			g       *Graph
			defects []int
			sound   []int
		}{
			{pathGraph(6, 5), []int{0, 1, 0}, []int{1, 2}},
			{pathGraph(6, 5), []int{2, 3, 3}, []int{1, 2}},
			{pathGraph(6, 5), []int{3, 5}, []int{1, 2}},
			{pathGraph(6, 1, 5), []int{1, 2}, []int{2, 3}},
			{pathGraph(6, 1, 5), []int{3, 1}, []int{2, 3}},
		} {
			for _, paired := range []bool{true, false} {
				u := NewUnionFind(c.g)
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("decoded %v without a panic (pair path: %v)", c.defects, paired)
						}
					}()
					if paired {
						u.appendPaired(nil, c.defects)
					} else {
						u.appendFull(nil, c.defects, nil)
					}
				}()
				// The instance is still sound after the panic.
				if err := PairedMatchesFull(u, NewUnionFind(c.g), c.sound); err != nil {
					t.Fatalf("after the panic on %v (pair path: %v): %v", c.defects, paired, err)
				}
			}
		}
	})
}
