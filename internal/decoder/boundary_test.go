package decoder

import (
	"math/rand/v2"
	"testing"
)

// pathGraph builds a line 0—1—…—n-1 of unit edges with the given
// boundary nodes; edge i joins i and i+1.
func pathGraph(n int, boundary ...int) *Graph {
	ends := make([][2]int32, n-1)
	for i := range ends {
		ends[i] = [2]int32{int32(i), int32(i + 1)}
	}
	return NewGraph(n, ends, nil, boundary)
}

// TestBoundaryAbsorbsLoneDefect: a single defect (odd total parity —
// impossible on a closed graph) matches to the open boundary, emitting
// the chain that connects it there.
func TestBoundaryAbsorbsLoneDefect(t *testing.T) {
	g := pathGraph(4, 3)
	uf := NewUnionFind(g)
	var got []int
	uf.Decode([]int{0}, func(e int) { got = append(got, e) })
	want := map[int]bool{0: true, 1: true, 2: true}
	if len(got) != len(want) {
		t.Fatalf("emitted %v, want all three path edges", got)
	}
	for _, e := range got {
		if !want[e] {
			t.Fatalf("emitted unexpected edge %d", e)
		}
	}
}

// TestBoundaryNotUsedWhenPairIsCloser: an adjacent defect pair pairs
// internally; the boundary never enters the correction.
func TestBoundaryNotUsedWhenPairIsCloser(t *testing.T) {
	g := pathGraph(5, 4)
	uf := NewUnionFind(g)
	var got []int
	uf.Decode([]int{0, 1}, func(e int) { got = append(got, e) })
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("emitted %v, want just edge 0", got)
	}
}

// TestBoundaryStopsGrowth: a grounded cluster is never odd, so a defect
// one step from the boundary resolves in the minimum number of sweeps
// and emits only its boundary edge.
func TestBoundaryStopsGrowth(t *testing.T) {
	g := pathGraph(6, 5)
	uf := NewUnionFind(g)
	var got []int
	uf.Decode([]int{4}, func(e int) { got = append(got, e) })
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("emitted %v, want just the boundary edge 4", got)
	}
	if uf.GrowthSweeps() != 2 {
		t.Fatalf("unit edge needs 2 half-step sweeps, ran %d", uf.GrowthSweeps())
	}
}

// TestBoundaryPrefersCheapPath: two defects whose mutual edge is heavy
// both drain to the boundary over their cheap virtual edges instead of
// pairing through the expensive direct edge.
func TestBoundaryPrefersCheapPath(t *testing.T) {
	// 0—1 weight 10, 0—2 and 1—2 weight 1, boundary at 2.
	ends := [][2]int32{{0, 1}, {0, 2}, {1, 2}}
	g := NewGraph(3, ends, []int32{10, 1, 1}, []int{2})
	uf := NewUnionFind(g)
	var got []int
	uf.Decode([]int{0, 1}, func(e int) { got = append(got, e) })
	want := map[int]bool{1: true, 2: true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] || got[0] == got[1] {
		t.Fatalf("emitted %v, want the two boundary edges {1, 2}", got)
	}
}

// TestBoundaryErasedSeed: an erased edge touching the boundary grounds
// its cluster before any growth — a defect inside decodes growth-free.
func TestBoundaryErasedSeed(t *testing.T) {
	g := pathGraph(4, 3)
	uf := NewUnionFind(g)
	got := uf.AppendCorrection(nil, []int{2}, []int{2})
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("emitted %v, want just erased boundary edge 2", got)
	}
	if uf.GrowthSweeps() != 0 {
		t.Fatalf("pure-erasure boundary decode grew %d sweeps", uf.GrowthSweeps())
	}
}

// TestBoundaryDefectPanics: boundary nodes are virtual and can never be
// defects.
func TestBoundaryDefectPanics(t *testing.T) {
	g := pathGraph(3, 2)
	uf := NewUnionFind(g)
	defer func() {
		if recover() == nil {
			t.Fatal("decoding a boundary-node defect must panic")
		}
	}()
	uf.Decode([]int{2}, func(int) {})
}

// TestBoundaryDecodeDeterministicAndSound: on random grid-with-boundary
// graphs, the emitted correction's interior syndrome always equals the
// defect set (boundary nodes absorb the rest), repeat runs are
// bit-identical, and scratch reuse across epochs is clean.
func TestBoundaryDecodeDeterministicAndSound(t *testing.T) {
	// An n×n grid whose rightmost column connects to one virtual node.
	n := 6
	idx := func(x, y int) int32 { return int32(y*n + x) }
	var ends [][2]int32
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			if x+1 < n {
				ends = append(ends, [2]int32{idx(x, y), idx(x+1, y)})
			}
			if y+1 < n {
				ends = append(ends, [2]int32{idx(x, y), idx(x, y+1)})
			}
		}
	}
	bnd := n * n
	for y := 0; y < n; y++ {
		ends = append(ends, [2]int32{idx(n-1, y), int32(bnd)})
	}
	g := NewGraph(n*n+1, ends, nil, []int{bnd})
	uf := NewUnionFind(g)
	uf2 := NewUnionFind(g)
	rng := rand.New(rand.NewPCG(71, 72))
	for trial := 0; trial < 200; trial++ {
		var defects []int
		for v := 0; v < n*n; v++ {
			if rng.Float64() < 0.15 {
				defects = append(defects, v)
			}
		}
		if len(defects) == 0 {
			continue
		}
		var a, b []int
		uf.Decode(defects, func(e int) { a = append(a, e) })
		uf2.Decode(defects, func(e int) { b = append(b, e) })
		if len(a) != len(b) {
			t.Fatalf("trial %d: runs differ in emit count", trial)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: emit order differs at %d", trial, i)
			}
		}
		// Interior syndrome of the correction must equal the defect set.
		par := make([]bool, g.Nodes())
		for _, e := range a {
			u, v := g.Ends(e)
			par[u] = !par[u]
			par[v] = !par[v]
		}
		want := make([]bool, g.Nodes())
		for _, d := range defects {
			want[d] = true
		}
		for v := 0; v < n*n; v++ {
			if par[v] != want[v] {
				t.Fatalf("trial %d: correction syndrome mismatch at node %d", trial, v)
			}
		}
	}
}
