package decoder

import (
	"math/rand/v2"
	"testing"
)

// torusGraph builds the L×L toric decoding graph for plaquette (Z-check)
// syndromes: node y·L+x is the plaquette at (x,y); horizontal qubit edge
// (x,y) (id y·L+x) separates plaquettes (x,y) and (x,y−1); vertical edge
// (x,y) (id L²+y·L+x) separates (x,y) and (x−1,y). Matches
// toric.Lattice's indexing.
func torusGraph(l int) *Graph {
	mod := func(a int) int { return ((a % l) + l) % l }
	ends := make([][2]int32, 2*l*l)
	for y := 0; y < l; y++ {
		for x := 0; x < l; x++ {
			ends[y*l+x] = [2]int32{int32(y*l + x), int32(mod(y-1)*l + x)}
			ends[l*l+y*l+x] = [2]int32{int32(y*l + x), int32(y*l + mod(x-1))}
		}
	}
	return NewGraph(l*l, ends, nil, nil)
}

// syndromeOf computes the defect list of an edge set on a graph: nodes
// with odd incident-edge parity.
func syndromeOf(g *Graph, edges map[int]bool) []int {
	par := make([]int, g.Nodes())
	for e := range edges {
		u, v := g.Ends(e)
		par[u] ^= 1
		par[v] ^= 1
	}
	var defects []int
	for v, p := range par {
		if p == 1 {
			defects = append(defects, v)
		}
	}
	return defects
}

// TestUnionFindClearsSyndrome is the core soundness property: on random
// error patterns of every density, the emitted correction's syndrome must
// equal the defect set exactly.
func TestUnionFindClearsSyndrome(t *testing.T) {
	rng := rand.New(rand.NewPCG(211, 212))
	for _, l := range []int{2, 3, 5, 8, 16} {
		g := torusGraph(l)
		uf := NewUnionFind(g)
		for trial := 0; trial < 200; trial++ {
			p := []float64{0.01, 0.05, 0.15, 0.4}[trial%4]
			errs := map[int]bool{}
			for e := 0; e < g.Edges(); e++ {
				if rng.Float64() < p {
					errs[e] = true
				}
			}
			defects := syndromeOf(g, errs)
			residual := map[int]bool{}
			for e := range errs {
				residual[e] = true
			}
			emitted := 0
			uf.Decode(defects, func(e int) {
				emitted++
				if residual[e] {
					delete(residual, e)
				} else {
					residual[e] = true
				}
			})
			if rest := syndromeOf(g, residual); len(rest) != 0 {
				t.Fatalf("L=%d trial %d: correction left %d defects", l, trial, len(rest))
			}
			if len(defects) == 0 && emitted != 0 {
				t.Fatalf("L=%d trial %d: empty syndrome but %d correction edges", l, trial, emitted)
			}
		}
	}
}

// TestUnionFindSingleErrors: every single edge error must be corrected
// back to exactly itself or a syndrome-equivalent weight-1 chain.
func TestUnionFindSingleErrors(t *testing.T) {
	g := torusGraph(5)
	uf := NewUnionFind(g)
	for e := 0; e < g.Edges(); e++ {
		defects := syndromeOf(g, map[int]bool{e: true})
		if len(defects) != 2 {
			t.Fatalf("edge %d: %d defects", e, len(defects))
		}
		var got []int
		uf.Decode(defects, func(c int) { got = append(got, c) })
		if len(got) != 1 || got[0] != e {
			t.Fatalf("edge %d: correction %v", e, got)
		}
	}
}

// TestUnionFindDeterministic: identical defect lists must emit identical
// edge sequences, run after run, fresh instance or recycled scratch.
func TestUnionFindDeterministic(t *testing.T) {
	g := torusGraph(8)
	rng := rand.New(rand.NewPCG(213, 214))
	uf1 := NewUnionFind(g)
	for trial := 0; trial < 50; trial++ {
		errs := map[int]bool{}
		for e := 0; e < g.Edges(); e++ {
			if rng.Float64() < 0.1 {
				errs[e] = true
			}
		}
		defects := syndromeOf(g, errs)
		var a, b []int
		uf1.Decode(defects, func(e int) { a = append(a, e) })
		uf2 := NewUnionFind(g)
		uf2.Decode(defects, func(e int) { b = append(b, e) })
		if len(a) != len(b) {
			t.Fatalf("trial %d: emit counts differ: %d vs %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: emit order differs at %d", trial, i)
			}
		}
	}
}

// TestUnionFindAdjacentPair: two defects across one edge decode to that
// edge alone (minimal growth, no over-correction).
func TestUnionFindAdjacentPair(t *testing.T) {
	g := torusGraph(6)
	uf := NewUnionFind(g)
	u, v := g.Ends(7)
	var got []int
	uf.Decode([]int{u, v}, func(e int) { got = append(got, e) })
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("adjacent pair decoded to %v, want [7]", got)
	}
}
