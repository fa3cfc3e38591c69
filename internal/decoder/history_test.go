package decoder

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// slabGraph is an open decode window in miniature: h layers of the l×l
// torus (horizontal weight wh) joined by vertical edges of weight wv,
// the top layer's verticals grounding on one virtual boundary node.
func slabGraph(l, h int, wh, wv int32) *Graph {
	mod := func(a int) int { return ((a % l) + l) % l }
	n := l * l
	boundary := int32(h * n)
	var ends [][2]int32
	var weights []int32
	for t := 0; t < h; t++ {
		base := int32(t * n)
		for y := 0; y < l; y++ {
			for x := 0; x < l; x++ {
				v := base + int32(y*l+x)
				ends = append(ends, [2]int32{v, base + int32(mod(y-1)*l+x)}, [2]int32{v, base + int32(y*l+mod(x-1))})
				weights = append(weights, wh, wh)
				up := boundary
				if t+1 < h {
					up = v + int32(n)
				}
				ends = append(ends, [2]int32{v, up})
				weights = append(weights, wv)
			}
		}
	}
	return NewGraph(h*n+1, ends, weights, []int{int(boundary)})
}

type historyShot struct {
	defects, erased []int
}

// historyShots draws n seeded shots on g: the syndrome of a random
// fault set at 1, 4, 10 or 0.1 % per edge in turn (boundary nodes
// excluded; the last rate is sparse enough for AppendCorrection's
// isolated-pair path), every third shot with erased edges, every
// eleventh with no defects at all (erased or not).
func historyShots(g *Graph, n int, rng *rand.Rand) []historyShot {
	shots := make([]historyShot, n)
	for i := range shots {
		faults := map[int]bool{}
		rate := []float64{0.01, 0.04, 0.1, 0.001}[i%4]
		for e := 0; e < g.Edges() && i%11 != 10; e++ {
			if rng.Float64() < rate {
				faults[e] = true
			}
		}
		shots[i].defects = offBoundary(g, syndromeOf(g, faults))
		for e := 0; e < g.Edges() && i%3 == 1; e++ {
			if faults[e] && rng.IntN(2) == 0 || rng.Float64() < 0.03 {
				shots[i].erased = append(shots[i].erased, e)
			}
		}
	}
	return shots
}

// TestScratchHistoryIndependent pins the contract the decode pool rests
// on: a shot's correction (emit order included) and sweep count depend
// on (graph, defects, erasure) alone. The same 300 shots — plain,
// erased and empty, dense and sparse, on two open window graphs and on
// a closed torus — decode identically on a fresh instance per shot, on
// one instance reused across all of them in a shuffled order, and on a
// used instance driven across the 30-bit epoch wraparound, whose stale
// stamps and pair marks would collide with the restarted epochs if the
// wrap did not clear them.
func TestScratchHistoryIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(1801, 1802))
	paired := 0 // isolated pairs the wrapped passes took out
	for _, c := range []struct {
		name  string
		g     *Graph
		shots int
	}{
		{"open-slab-2-3", slabGraph(5, 6, 2, 3), 150},
		{"closed-torus-2-3", weightedTorusGraph(8, func(e int) int32 { return 2 + int32(e/64) }), 50},
		{"open-slab-unit", slabGraph(8, 8, 1, 1), 100},
	} {
		g := c.g
		shots := historyShots(g, c.shots, rng)
		want := make([][]int32, len(shots))
		sweeps := make([]int, len(shots))
		for i, s := range shots {
			uf := NewUnionFind(g)
			want[i] = uf.AppendCorrection([]int32{}, s.defects, s.erased)
			sweeps[i] = uf.GrowthSweeps()
		}
		check := func(arm string, uf *UnionFind, i int) {
			t.Helper()
			got := uf.AppendCorrection([]int32{-7}, shots[i].defects, shots[i].erased)
			if got[0] != -7 || !slices.Equal(got[1:], want[i]) {
				t.Fatalf("%s %s shot %d: correction %v, fresh instance gave %v", c.name, arm, i, got, want[i])
			}
			if uf.GrowthSweeps() != sweeps[i] {
				t.Fatalf("%s %s shot %d: %d sweeps, fresh instance ran %d", c.name, arm, i, uf.GrowthSweeps(), sweeps[i])
			}
		}
		reused := NewUnionFind(g)
		for _, i := range rng.Perm(len(shots)) {
			check("reused", reused, i)
		}
		wrapped := NewUnionFind(g)
		// Leave stamps of epochs 1, 2, … behind, from shots the wrapped
		// pass reaches last, so they are still there when it gets to
		// those epochs again.
		for i := len(shots) - 1; i >= len(shots)-12; i-- {
			check("pre-wrap", wrapped, i)
		}
		wrapped.epoch = 1<<30 - 3
		for i, s := range shots {
			check("wrapped", wrapped, i)
			if len(s.defects) > 0 && len(s.erased) == 0 && len(s.defects)*sparseK <= g.Nodes() {
				n, _ := pairOutcome(wrapped)
				paired += n
			}
		}
		if wrapped.epoch >= 1<<30-3 {
			t.Fatalf("%s: epoch %d never wrapped", c.name, wrapped.epoch)
		}
	}
	if paired == 0 {
		t.Fatal("no shot took the isolated-pair path")
	}
}
