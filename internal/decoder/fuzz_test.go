package decoder

import (
	"slices"
	"testing"
)

// parseFuzzGraph builds a small weighted graph with optional
// open-boundary nodes from fuzz bytes, plus a fault mask and an erased
// set over its edges: node count (2–64), a boundary byte, then four
// bytes per edge — endpoints, weight 1–5, and a flag byte whose low bits
// mark the edge faulty and erased. The boundary byte's low two bits
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

// FuzzUnionFindDecode drives the union-find kernel on random weighted
// boundary graphs: the decode must not panic, the correction must clear
// exactly the defect set off the boundary and name no edge twice, an
// instance that decoded something else first must agree with a fresh
// one, emit order and sweep count included, and the isolated-pair path
// must agree with the full decode on the same defects without the
// erasure.
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
		if err := PairedMatchesFull(used, fresh, defects); err != nil {
			t.Fatal(err)
		}
	})
}
