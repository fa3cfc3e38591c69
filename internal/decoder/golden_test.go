package decoder_test

import (
	"testing"

	"ftqc/internal/decoder"
	"ftqc/internal/stream"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// The golden kernel test pins the union-find decoder's observable output
// — every emitted correction edge in emit order and the growth-sweep
// count — on fixed, seeded inputs. The constants were captured from the plain half-step growth
// loop (one unit of support per boundary visit, every sweep a full pass);
// any later growth schedule has to reproduce them exactly, order
// included, which is what keeps committed frames bit-identical across
// kernel changes.

// goldenRNG is splitmix64: the inputs must not depend on a library
// generator whose stream could change under the test.
type goldenRNG uint64

func (s *goldenRNG) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *goldenRNG) hit(perMille int) bool { return s.hitOf(perMille, 1000) }

func (s *goldenRNG) hitOf(n, den int) bool { return int(s.next()%uint64(den)) < n }

// goldenHash is an order-sensitive FNV-1a over 32-bit values.
type goldenHash uint64

func (h *goldenHash) add(v int32) {
	x := uint64(*h)
	for i := 0; i < 4; i++ {
		x ^= uint64(byte(v >> (8 * i)))
		x *= 1099511628211
	}
	*h = goldenHash(x)
}

type goldenCase struct {
	seed  goldenRNG // fixed per case, so removing a case leaves the others' inputs alone
	name  string
	graph *decoder.Graph
	// Per-mille rates of the seeded draw: edge faults (their syndrome is
	// the defect set) and erased edges. A non-zero faultDen replaces the
	// fault rate's denominator of 1000.
	fault, erased, faultDen int

	hash   uint64
	sweeps int // summed over the shots
}

func circuitWindow(t *testing.T, code surface.Code, w, c, wh, wv, wd int) *stream.Window {
	t.Helper()
	win, err := stream.NewWindow(code, w, c, wh, wv, wd)
	if err != nil {
		t.Fatal(err)
	}
	return win
}

// closedTorus is a boundary-free L×L torus with weight-2 vertical and
// weight-3 horizontal links: the closed-graph (bnd == nil) path.
func closedTorus(l int) *decoder.Graph {
	mod := func(a int) int { return ((a % l) + l) % l }
	ends := make([][2]int32, 2*l*l)
	weights := make([]int32, 2*l*l)
	for y := 0; y < l; y++ {
		for x := 0; x < l; x++ {
			ends[y*l+x] = [2]int32{int32(y*l + x), int32(mod(y-1)*l + x)}
			ends[l*l+y*l+x] = [2]int32{int32(y*l + x), int32(y*l + mod(x-1))}
			weights[y*l+x], weights[l*l+y*l+x] = 2, 3
		}
	}
	return decoder.NewGraph(l*l, ends, weights, nil)
}

func TestGoldenKernel(t *testing.T) {
	toric8 := circuitWindow(t, toric.Cached(8), 16, 8, 2, 2, 3)
	rot5 := circuitWindow(t, surface.Rotated(5), 10, 5, 2, 2, 3)
	mixed := circuitWindow(t, toric.Cached(6), 12, 6, 3, 2, 5)
	heavy := circuitWindow(t, toric.Cached(6), 12, 6, 3, 4, 5)
	toric16 := circuitWindow(t, toric.Cached(16), 32, 16, 2, 2, 3)
	rot5tall := circuitWindow(t, surface.Rotated(5), 40, 5, 2, 2, 3)
	unit, err := stream.NewWindow(toric.Cached(8), 16, 8, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	unit16, err := stream.NewWindow(toric.Cached(16), 32, 16, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []goldenCase{
		{seed: 0x5eed0000, name: "toric8-circuit-2-2-3", graph: toric8.Graph(), fault: 6, hash: 0x25d65bf002fc4d7b, sweeps: 302},
		{seed: 0x5eed0001, name: "toric8-circuit-2-2-3-dual", graph: toric8.DualGraph(), fault: 12, hash: 0xf997a0402a9f40dd, sweeps: 404},
		{seed: 0x5eed0002, name: "rotated5-circuit-2-2-3", graph: rot5.Graph(), fault: 10, hash: 0x69900c487d16033c, sweeps: 269},
		{seed: 0x5eed0003, name: "rotated5-circuit-2-2-3-dual", graph: rot5.DualGraph(), fault: 10, hash: 0x979e8c3f44016eb2, sweeps: 293},
		{seed: 0x5eed0004, name: "toric8-unit", graph: unit.Graph(), fault: 15, hash: 0xad33f58f7df83fd2, sweeps: 150},
		{seed: 0x5eed0005, name: "toric6-mixed-3-2-5", graph: mixed.Graph(), fault: 10, hash: 0x1ce09ab900ddfb87, sweeps: 473},
		{seed: 0x5eed0006, name: "toric6-heavy-3-4-5", graph: heavy.Graph(), fault: 10, hash: 0xc443812c06a3e004, sweeps: 563},
		{seed: 0x5eed0007, name: "closed-torus-2-3", graph: closedTorus(12), fault: 40, hash: 0xd0a136610488cf45, sweeps: 306},
		{seed: 0x5eed0008, name: "toric8-erased", graph: toric8.Graph(), fault: 6, erased: 8, hash: 0x309c760a998c0eed, sweeps: 305},
		{seed: 0x5eed0009, name: "rotated5-erased", graph: rot5.DualGraph(), fault: 8, erased: 15, hash: 0x864787e7b64e6cfb, sweeps: 264},
		// The only case past L=8: ~5 % defect density on the benchmark's
		// headline window, where the scratch no longer fits near L1.
		{seed: 0x5eed000e, name: "toric16-circuit-2-2-3", graph: toric16.Graph(), fault: 5, hash: 0x86e15404cbfdecd0, sweeps: 393},
		// Sparse windows, below the density rule of AppendCorrection, so
		// nearly every decode takes the isolated-pair path: the benchmark's
		// quiet window in unit weights at 0.3 ‰ faults per edge, and a
		// rotated d=5 circuit window of 40 layers (481 detectors, room for
		// seven defects under the rule) at 1 ‰. Recorded on the full
		// decode.
		{seed: 0x5eed000f, name: "toric16-unit-sparse", graph: unit16.Graph(), fault: 3, faultDen: 10000, hash: 0x4eadac4d7dec194a, sweeps: 72},
		{seed: 0x5eed0010, name: "rotated5-circuit-sparse", graph: rot5tall.Graph(), fault: 1, hash: 0x2700a97a84a2ed0, sweeps: 201},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			hash, sweeps := runGolden(t, c)
			if hash != c.hash || sweeps != c.sweeps {
				t.Errorf("got hash: %#x, sweeps: %d; pinned hash: %#x, sweeps: %d", hash, sweeps, c.hash, c.sweeps)
			}
		})
	}
}

// runGolden decodes 64 seeded shots of c on one UnionFind instance
// (scratch reuse is part of what is pinned) and folds everything the
// decoder reports into one hash. Every shot's defect list is also
// decoded plain by the isolated-pair path and the full path, past the
// density rule, which must agree.
func runGolden(t *testing.T, c goldenCase) (uint64, int) {
	t.Helper()
	g := c.graph
	rng := c.seed
	uf := decoder.NewUnionFind(g)
	pu, fu := decoder.NewUnionFind(g), decoder.NewUnionFind(g)
	h := goldenHash(14695981039346656037)
	lit := make([]bool, g.Nodes())
	sweeps := 0
	den := c.faultDen
	if den == 0 {
		den = 1000
	}
	for shot := 0; shot < 64; shot++ {
		clear(lit)
		for e := 0; e < g.Edges(); e++ {
			if rng.hitOf(c.fault, den) {
				a, b := g.Ends(e)
				lit[a], lit[b] = !lit[a], !lit[b]
			}
		}
		var defects, erased []int
		for v := 0; v < g.Nodes(); v++ {
			switch {
			case g.IsBoundary(v):
			case lit[v]:
				defects = append(defects, v)
			default:
				// The pinned inputs were drawn when every idle node also
				// cost one draw (a guard coin, since removed).
				rng.next()
			}
		}
		for e := 0; e < g.Edges() && c.erased > 0; e++ {
			if rng.hit(c.erased) {
				erased = append(erased, e)
			}
		}
		if err := decoder.PairedMatchesFull(pu, fu, defects); err != nil {
			t.Fatalf("shot %d: %v", shot, err)
		}
		h.add(-1)
		for _, e := range uf.AppendCorrection(nil, defects, erased) {
			h.add(e)
		}
		h.add(int32(uf.GrowthSweeps()))
		sweeps += uf.GrowthSweeps()
	}
	return uint64(h), sweeps
}
