package decoder

import (
	"fmt"
	"slices"
	"testing"

	"ftqc/internal/bits"
)

// parseFuzzGraph builds a small weighted graph with optional
// open-boundary nodes from fuzz bytes, plus a fault mask and an erased
// set over its edges: node count (2–64), a boundary byte, then four
// bytes per edge — endpoints, weight 1–5, and a flag byte whose low bits
// mark the edge faulty and erased and whose bit 2 makes the weight
// MaxWeight − (0–4) instead. The boundary byte's low two bits
// give the boundary count (0–2), bit 2 gives every edge the first
// edge's weight, and its top five bits shift the boundary nodes from the
// highest ids, wrapping past the last to the first, so they can sit
// anywhere.
func parseFuzzGraph(data []byte) (g *Graph, faulty []bool, erased []int) {
	if len(data) < 2 {
		return NewGraph(2, nil, nil, nil), nil, nil
	}
	n := 2 + int(data[0])%63
	nb := min(int(data[1]&3)%3, n-1)
	equal, shift := data[1]&4 != 0, int(data[1]>>3)
	var ends [][2]int32
	var weights []int32
	var boundary []int
	for b := n - nb; b < n; b++ {
		boundary = append(boundary, (b+shift)%n)
	}
	for data = data[2:]; len(data) >= 4; data = data[4:] {
		u := int(data[0]) % n
		v := (u + 1 + int(data[1])%(n-1)) % n // never a self-loop
		if data[3]&2 != 0 {
			erased = append(erased, len(ends))
		}
		ends = append(ends, [2]int32{int32(u), int32(v)})
		w := 1 + int32(data[2])%5
		if data[3]&4 != 0 {
			w = MaxWeight - int32(data[2])%5
		}
		if equal && len(weights) > 0 {
			w = weights[0]
		}
		weights = append(weights, w)
		faulty = append(faulty, data[3]&1 != 0)
	}
	return NewGraph(n, ends, weights, boundary), faulty, erased
}

// fuzzSyndrome is the defect list of the edges whose fault flag equals
// on — a syndrome by construction, so its parity is valid whatever the
// graph's connectivity. Boundary nodes absorb theirs.
func fuzzSyndrome(g *Graph, faulty []bool, on bool) []int {
	edges := map[int]bool{}
	for e, f := range faulty {
		if f == on {
			edges[e] = true
		}
	}
	return offBoundary(g, syndromeOf(g, edges))
}

// offBoundary drops the open-boundary nodes from a defect list.
func offBoundary(g *Graph, defects []int) []int {
	return slices.DeleteFunc(defects, g.IsBoundary)
}

// givenMatchesWalked packs the defect lists as lanes of one batch, nc
// detectors a layer, sweeps their first passes with AppendFirstPasses,
// and decodes every lane given its pass on gu — the pass sitting in the
// correction buffer, as the stream hands it over — and walked on wu. It
// reports the first difference in correction (emit order included),
// merge order or sweep count, or nil.
func givenMatchesWalked(gu, wu *UnionFind, nc int, lanes [][]int) error {
	g := gu.g
	layers := make([][]bits.Vec, (g.Nodes()+nc-1)/nc)
	for t := range layers {
		layers[t] = bits.NewVecs(nc, len(lanes))
	}
	for lane, defects := range lanes {
		for _, v := range defects {
			layers[v/nc][v%nc].Set(lane, true)
		}
	}
	first := make([][]int32, len(lanes))
	g.AppendFirstPasses(first, layers)
	for lane, defects := range lanes {
		want := wu.appendFull(nil, defects, nil)
		buf := append(make([]int32, 0, len(want)+len(first[lane])), first[lane]...)
		got := gu.appendGiven(buf[:0], defects, buf)
		merged := len(defects) == 0 || slices.Equal(gu.allGrown, wu.allGrown) // an empty decode leaves them stale
		if !slices.Equal(got, want) || !merged || gu.sweeps != wu.sweeps {
			return fmt.Errorf("lane %d, defects %v, first pass %v: given %v (merges %v) in %d sweeps, walked %v (merges %v) in %d",
				lane, defects, first[lane], got, gu.allGrown, gu.sweeps, want, wu.allGrown, wu.sweeps)
		}
	}
	return nil
}

// crossGraphBytes turns fuzz bytes into another graph's: the node count
// and every weight byte shifted, so parseFuzzGraph builds a graph of
// another size, other endpoints and other weights from the same input.
func crossGraphBytes(data []byte) []byte {
	b := slices.Clone(data)
	if len(b) >= 2 {
		b[0] += 29
	}
	for i := 4; i < len(b); i += 4 {
		b[i]++
	}
	return b
}

// FuzzUnionFindDecode drives the union-find kernel on random weighted
// boundary graphs: the decode must not panic, the correction must clear
// exactly the defect set off the boundary and name no edge twice, an
// instance that decoded something else first — on this graph, then on
// another (crossGraphBytes) and back — must agree with a fresh one on
// each, emit order and sweep count included, the isolated-pair path must
// agree with the full decode on the same defects without the erasure,
// and so must a decode given its first pass by the sweep over the
// plain syndromes packed as lanes of one batch (both fault sets, the
// second again past the first lane word).
func FuzzUnionFindDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 0, 1})                                     // one faulty edge, closed
	f.Add([]byte{3, 1, 0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 2, 1, 3, 0, 0, 1}) // lone defect on a path into a boundary node
	f.Add([]byte{6, 0, 0, 0, 1, 3, 0, 0, 2, 1, 1, 0, 0, 3, 2, 0, 3, 2}) // parallel edges, erased faults
	f.Add([]byte{62, 2, 0, 5, 1, 1, 9, 7, 3, 3, 20, 1, 0, 2, 33, 8, 4, 1, 50, 10, 2, 1, 61, 0, 1, 3})
	f.Add([]byte{9, 2, 0, 0, 2, 2, 1, 0, 2, 2, 2, 0, 2, 2, 3, 0, 2, 2})             // erasure only, no faults
	f.Add([]byte{2, 0, 0, 0, 0, 1, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0})             // 4-ring, one isolated pair
	f.Add([]byte{4, 0, 0, 0, 0, 1, 1, 0, 0, 1, 2, 0, 0, 0, 3, 0, 0, 1, 4, 0, 0, 1}) // 6-path, the rest grows into the pair
	// A 6-ring of equal weight-3 edges with a chord 2—5: two isolated
	// pairs and nothing else, so wmin = 3 and no weight is read.
	f.Add([]byte{4, 4, 0, 0, 2, 1, 1, 0, 7, 0, 2, 0, 9, 0, 3, 0, 4, 1, 4, 0, 0, 0, 5, 0, 0, 0, 2, 2, 1, 0})
	// A 6-ring whose boundary nodes are shifted to ids 1 and 2: the pair
	// {3, 4} beside them, and a lone defect 0 that grounds on 1.
	f.Add([]byte{4, 2 | 3<<3, 0, 0, 0, 1, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 1, 4, 0, 0, 0, 5, 0, 0, 0})
	// Given first passes. A 5-path with defects 0, 1, 2, 4: node 1's
	// edges both complete in the first pass, so the walked pass drops its
	// boundary cell, and its odd cluster grows again.
	f.Add([]byte{3, 0, 0, 0, 0, 1, 1, 0, 0, 0, 2, 0, 0, 1, 3, 0, 0, 1})
	// The same path at MaxWeight throughout (wmin = 32767: a first pass
	// reaches 65,534), then with one MaxWeight edge among unit ones.
	f.Add([]byte{3, 4, 0, 0, 0, 5, 1, 0, 0, 4, 2, 0, 0, 5, 3, 0, 0, 5})
	f.Add([]byte{3, 0, 0, 0, 0, 1, 1, 0, 0, 0, 2, 0, 0, 5, 3, 0, 0, 1})
	// Parallel lightest edges between two defects, both completing in
	// the first pass, beside a boundary node that grounds a third.
	f.Add([]byte{3, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, faulty, erased := parseFuzzGraph(data)
		defects := fuzzSyndrome(g, faulty, true)
		fresh := NewUnionFind(g)
		want := fresh.AppendCorrection(nil, defects, erased)

		par := make([]bool, g.Nodes())
		seen := make([]bool, g.Edges())
		for _, e := range want {
			if seen[e] {
				t.Fatalf("edge %d emitted twice in %v", e, want)
			}
			seen[e] = true
			a, b := g.Ends(int(e))
			par[a], par[b] = !par[a], !par[b]
		}
		for v := 0; v < g.Nodes(); v++ {
			if !g.IsBoundary(v) && par[v] != slices.Contains(defects, v) {
				t.Fatalf("correction %v leaves node %d wrong (defects %v)", want, v, defects)
			}
		}

		// History: the complementary fault set without the erasure first,
		// then the real shot, on one instance.
		used := NewUnionFind(g)
		used.AppendCorrection(nil, fuzzSyndrome(g, faulty, false), nil)
		got := used.AppendCorrection(nil, defects, erased)
		if !slices.Equal(got, want) || used.GrowthSweeps() != fresh.GrowthSweeps() {
			t.Fatalf("reused instance: %v in %d sweeps, fresh: %v in %d", got, used.GrowthSweeps(), want, fresh.GrowthSweeps())
		}
		// Across graphs, as a pool worker re-binds its one instance: B,
		// then A again, each against a fresh instance.
		gb, faultyB, erasedB := parseFuzzGraph(crossGraphBytes(data))
		defectsB := fuzzSyndrome(gb, faultyB, true)
		freshB := NewUnionFind(gb)
		wantB := freshB.AppendCorrection(nil, defectsB, erasedB)
		used.bind(gb)
		if got := used.AppendCorrection(nil, defectsB, erasedB); !slices.Equal(got, wantB) || used.GrowthSweeps() != freshB.GrowthSweeps() {
			t.Fatalf("instance re-bound to graph B: %v in %d sweeps, fresh: %v in %d", got, used.GrowthSweeps(), wantB, freshB.GrowthSweeps())
		}
		used.bind(g)
		if got := used.AppendCorrection(nil, defects, erased); !slices.Equal(got, want) || used.GrowthSweeps() != fresh.GrowthSweeps() {
			t.Fatalf("instance re-bound to graph A: %v in %d sweeps, fresh: %v in %d", got, used.GrowthSweeps(), want, fresh.GrowthSweeps())
		}
		if err := PairedMatchesFull(used, fresh, defects); err != nil {
			t.Fatal(err)
		}
		rest := fuzzSyndrome(g, faulty, false)
		lanes := make([][]int, 65)
		lanes[0], lanes[1], lanes[64] = defects, rest, rest
		if err := givenMatchesWalked(used, fresh, 1+len(data)%g.Nodes(), lanes); err != nil {
			t.Fatal(err)
		}
	})
}
