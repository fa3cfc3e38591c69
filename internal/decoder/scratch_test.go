package decoder_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/spacetime"
	"ftqc/internal/toric"
)

// weightedPath is an n-node path whose end nodes are open-boundary
// nodes, edge i joining i and i+1 at weight 1 + i%5.
func weightedPath(n int) *decoder.Graph {
	ends := make([][2]int32, n-1)
	weights := make([]int32, n-1)
	for i := range ends {
		ends[i] = [2]int32{int32(i), int32(i + 1)}
		weights[i] = 1 + int32(i%5)
	}
	return decoder.NewGraph(n, ends, weights, []int{0, n - 1})
}

// drawShot is the syndrome of `faults` random edge faults off the
// boundary, and `erased` random erased edges.
func drawShot(g *decoder.Graph, rng *rand.Rand, faults, erased int) (defects, erasedEdges []int) {
	lit := make([]bool, g.Nodes())
	for range faults {
		a, b := g.Ends(rng.IntN(g.Edges()))
		lit[a], lit[b] = !lit[a], !lit[b]
	}
	for v, on := range lit {
		if on && !g.IsBoundary(v) {
			defects = append(defects, v)
		}
	}
	for range erased {
		erasedEdges = append(erasedEdges, rng.IntN(g.Edges()))
	}
	return defects, erasedEdges
}

// firstPass sweeps one plain decode's first growth pass, as the stream
// hands it to a pool.
func firstPass(g *decoder.Graph, defects []int) []int32 {
	layers := [][]bits.Vec{bits.NewVecs(g.Nodes(), 1)}
	for _, v := range defects {
		layers[0][v].Set(0, true)
	}
	lists := make([][]int32, 1)
	g.AppendFirstPasses(lists, layers)
	return lists[0]
}

// TestScratchAcrossGraphs holds a one-worker pool's one UnionFind, which
// decodes alternately on graphs of different sizes and weights — an
// L = 16 circuit window and its closing volume, a phenomenological
// window, a closed torus and a boundary path — to a fresh instance on
// every decode: correction, emit order and GrowthSweeps, for plain
// (given their first pass, and sparse) and erased decodes. After a larger
// graph the instance keeps that graph's edge records, whose targets are
// stale until a decode first touches them.
func TestScratchAcrossGraphs(t *testing.T) {
	win := circuitWindow(t, toric.Cached(16), 32, 16, 2, 2, 3)
	closing := spacetime.NewVolume(toric.Cached(16), 16, 2, 2, 3)
	phen := circuitWindow(t, toric.Cached(8), 16, 8, 3, 2, 0)
	graphs := []*decoder.Graph{win.Graph(), closing.Graph(), phen.DualGraph(), closedTorus(12), weightedPath(64)}
	pool := decoder.NewPool(1)
	defer pool.Close()
	uf := decoder.PoolScratch(pool)[0]
	b := decoder.NewBatch(1)
	rng := rand.New(rand.NewPCG(501, 502))
	var given, sparse, erasedRuns int
	for _, gi := range []int{0, 2, 1, 3, 0, 4, 1, 2, 4, 3} {
		g := graphs[gi]
		dense := max(2, g.Edges()/100)
		for kind, draw := range [][2]int{{dense, 0}, {1, 0}, {dense, max(1, g.Edges()/200)}} {
			defects, erased := drawShot(g, rng, draw[0], draw[1])
			shot := decoder.Shot{Defects: defects, Erased: erased}
			switch {
			case kind == 0 && len(defects) > 0 && !g.Sparse(len(defects)):
				given++
				shot.FirstPass = firstPass(g, defects)
				shot.CorrBuf = slices.Clone(shot.FirstPass)
			case kind == 1 && len(defects) > 0 && g.Sparse(len(defects)):
				sparse++
			case kind == 2 && len(erased) > 0:
				erasedRuns++
			}
			if err := pool.ResubmitOn(g, b, []decoder.Shot{shot}); err != nil {
				t.Fatal(err)
			}
			got := b.Wait()[0]
			fresh := decoder.NewUnionFind(g)
			want := fresh.AppendCorrection(nil, defects, erased)
			if !slices.Equal(got, want) || uf.GrowthSweeps() != fresh.GrowthSweeps() {
				t.Fatalf("graph %d, decode %d: shared scratch %v in %d sweeps, fresh %v in %d",
					gi, kind, got, uf.GrowthSweeps(), want, fresh.GrowthSweeps())
			}
		}
	}
	if len(decoder.PoolScratch(pool)) != 1 || given < 8 || sparse < 6 || erasedRuns < 10 {
		t.Fatalf("degenerate: %d instances; %d given, %d sparse, %d erased decodes",
			len(decoder.PoolScratch(pool)), given, sparse, erasedRuns)
	}
}

// TestPoolHoldsOneScratchPerWorker: a two-worker pool that decodes both
// sectors of a window and of its 16 closing volumes — 34 graphs — holds
// exactly two UnionFinds, sized to the largest graph either decoded.
func TestPoolHoldsOneScratchPerWorker(t *testing.T) {
	code := toric.Cached(6)
	win := circuitWindow(t, code, 16, 8, 2, 2, 3)
	graphs := []*decoder.Graph{win.Graph(), win.DualGraph()}
	for h := 1; h <= 16; h++ {
		v := spacetime.NewVolume(code, h, 2, 2, 3)
		graphs = append(graphs, v.Graph(), v.DualGraph())
	}
	pool := decoder.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewPCG(503, 504))
	shots := make([]decoder.Shot, 16)
	b := decoder.NewBatch(len(shots))
	largest := 0
	for _, g := range graphs {
		largest = max(largest, g.Nodes())
		for i := range shots {
			shots[i].Defects, shots[i].Erased = drawShot(g, rng, g.Edges()/50, i%2)
		}
		if err := pool.ResubmitOn(g, b, shots); err != nil {
			t.Fatal(err)
		}
		b.Wait()
	}
	ufs := decoder.PoolScratch(pool)
	if len(ufs) != 2 || ufs[0] == ufs[1] {
		t.Fatalf("a two-worker pool that decoded %d graphs holds %d scratch instances", len(graphs), len(ufs))
	}
	if n := max(decoder.ScratchNodes(ufs[0]), decoder.ScratchNodes(ufs[1])); n != largest {
		t.Fatalf("scratch holds %d node records; the largest graph has %d", n, largest)
	}
}
