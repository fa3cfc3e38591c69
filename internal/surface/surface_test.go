package surface_test

import (
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// codesUnderTest returns one instance of every family behind the
// contract, small enough for exhaustive checks.
func codesUnderTest() []surface.Code {
	return []surface.Code{
		toric.Cached(2),
		toric.Cached(3),
		toric.Cached(4),
		toric.Cached(5),
		surface.Planar(2),
		surface.Planar(3),
		surface.Planar(4),
		surface.Rotated(3),
		surface.Rotated(5),
	}
}

func TestConstructionInvariants(t *testing.T) {
	for _, d := range []int{2, 3, 4, 5} {
		c := surface.Planar(d)
		if got, want := c.Qubits(), d*d+(d-1)*(d-1); got != want {
			t.Errorf("planar d=%d: %d qubits, want d²+(d−1)² = %d", d, got, want)
		}
		if got, want := c.Checks(), d*(d-1); got != want {
			t.Errorf("planar d=%d: %d checks per sector, want d(d−1) = %d", d, got, want)
		}
	}
	for _, d := range []int{3, 5, 7} {
		c := surface.Rotated(d)
		if got, want := c.Qubits(), d*d; got != want {
			t.Errorf("rotated d=%d: %d qubits, want d² = %d", d, got, want)
		}
		if got, want := c.Checks(), (d*d-1)/2; got != want {
			t.Errorf("rotated d=%d: %d checks per sector, want (d²−1)/2 = %d", d, got, want)
		}
	}
	for _, c := range codesUnderTest() {
		name, d := c.CodeName(), c.Distance()
		open := c.CodeName() != "toric"
		if c.Open() != open {
			t.Errorf("%s d=%d: Open() = %v", name, d, c.Open())
		}
		wantDet := 2
		if open {
			wantDet = 1
		}
		for _, dual := range []bool{false, true} {
			g := c.SectorGraph(dual)
			wantNodes := c.Checks()
			if open {
				wantNodes++
			}
			if g.Nodes() != wantNodes {
				t.Errorf("%s d=%d dual=%v: sector graph has %d nodes, want %d", name, d, dual, g.Nodes(), wantNodes)
			}
			if g.Edges() != c.Qubits() {
				t.Errorf("%s d=%d dual=%v: sector graph has %d edges, want one per qubit (%d)", name, d, dual, g.Edges(), c.Qubits())
			}
			// Each detector's support: the qubits whose lone flip trips it.
			var weight [2]int
			for q := 0; q < c.Qubits(); q++ {
				errv := bits.NewVec(c.Qubits())
				errv.Flip(q)
				a, b := c.LogicalParity(dual, errv)
				if a {
					weight[0]++
				}
				if b {
					weight[1]++
				}
			}
			dets := 0
			for i, w := range weight {
				if w == 0 {
					continue
				}
				dets++
				if w < d {
					t.Errorf("%s d=%d dual=%v: detector %d has weight %d < distance", name, d, dual, i, w)
				}
			}
			if dets != wantDet {
				t.Errorf("%s d=%d dual=%v: %d failure detectors, want %d", name, d, dual, dets, wantDet)
			}
		}
		sch := c.ExtractionSchedule()
		if len(sch.Plaq) != c.Checks() || len(sch.Star) != c.Checks() {
			t.Errorf("%s d=%d: schedule has %d/%d check orders, want %d", name, d, len(sch.Plaq), len(sch.Star), c.Checks())
		}
		if len(sch.DiagX) != c.Qubits() || len(sch.DiagZ) != c.Qubits() {
			t.Errorf("%s d=%d: schedule has %d/%d diagonal entries, want %d", name, d, len(sch.DiagX), len(sch.DiagZ), c.Qubits())
		}
		trunc := 0
		for _, diag := range [][][2]int32{sch.DiagX, sch.DiagZ} {
			for _, pr := range diag {
				if pr[1] < 0 {
					trunc++
				}
			}
		}
		if open && trunc == 0 {
			t.Errorf("%s d=%d: open code has no boundary-truncated diagonals", name, d)
		}
		if !open && trunc != 0 {
			t.Errorf("%s d=%d: closed code has %d truncated diagonals", name, d, trunc)
		}
	}
}

// TestScheduleMatchesGraph pins the schedule and the sector graph to
// each other: the CNOT readers of data qubit q are exactly edge q's
// detector endpoints, and the diagonal pair is those readers ordered
// late-first (a single reader pairs with the boundary in the graph and
// carries −1 in the diagonal class).
func TestScheduleMatchesGraph(t *testing.T) {
	for _, c := range codesUnderTest() {
		sch := c.ExtractionSchedule()
		for s, diag := range [][][2]int32{sch.DiagX, sch.DiagZ} {
			dual := s == 1
			g := c.SectorGraph(dual)
			for q := 0; q < c.Qubits(); q++ {
				a, b := g.Ends(q)
				la, ea := int(diag[q][0]), int(diag[q][1])
				switch {
				case ea < 0:
					if !c.Open() || b != c.Checks() && a != c.Checks() {
						t.Fatalf("%s d=%d dual=%v qubit %d: truncated diagonal but edge (%d,%d) does not ground",
							c.CodeName(), c.Distance(), dual, q, a, b)
					}
					if la != a && la != b {
						t.Fatalf("%s d=%d dual=%v qubit %d: truncated reader %d not an endpoint of edge (%d,%d)",
							c.CodeName(), c.Distance(), dual, q, la, a, b)
					}
				case la == a && ea == b, la == b && ea == a:
				default:
					t.Fatalf("%s d=%d dual=%v qubit %d: diagonal {%d,%d} does not match edge (%d,%d)",
						c.CodeName(), c.Distance(), dual, q, la, ea, a, b)
				}
			}
		}
	}
}

func TestReaderPairs(t *testing.T) {
	// Two readers at distinct steps: late (larger step) listed first.
	pairs := surface.ReaderPairs([][4]int{{0, -1, -1, -1}, {-1, -1, -1, 0}}, 1)
	if pairs[0] != [2]int32{1, 0} {
		t.Errorf("two-reader qubit: pairs = %v, want {1 0} (late first)", pairs[0])
	}
	// Single reader: truncated entry.
	pairs = surface.ReaderPairs([][4]int{{-1, 0, -1, -1}}, 1)
	if pairs[0] != [2]int32{0, -1} {
		t.Errorf("single-reader qubit: pairs = %v, want {0 -1}", pairs[0])
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("unread qubit", func() {
		surface.ReaderPairs([][4]int{{0, -1, -1, -1}}, 2)
	})
	mustPanic("three readers", func() {
		surface.ReaderPairs([][4]int{{0, -1, -1, -1}, {-1, 0, -1, -1}, {-1, -1, 0, -1}}, 1)
	})
	mustPanic("same-step readers", func() {
		surface.ReaderPairs([][4]int{{0, -1, -1, -1}, {0, -1, -1, -1}}, 1)
	})
}

// TestSingleError2DSoundness decodes every single data-qubit error of
// every family in both sectors and asserts the decode-residual chain:
// the correction's residual against the injected error is syndrome-free
// and carries no logical error. Open-boundary codes route chains into
// the virtual boundary node, so this exercises the grounded clusters.
func TestSingleError2DSoundness(t *testing.T) {
	for _, c := range codesUnderTest() {
		for _, dual := range []bool{false, true} {
			g := c.SectorGraph(dual)
			uf := decoder.NewUnionFind(g)
			errv := bits.NewVec(c.Qubits())
			corr := bits.NewVec(c.Qubits())
			for q := 0; q < c.Qubits(); q++ {
				errv.Clear()
				errv.Flip(q)
				defects := sectorSyndrome(c, dual, errv)
				corr.Clear()
				uf.Decode(defects, func(e int) { corr.Flip(e) })
				corr.Xor(errv)
				if res := sectorSyndrome(c, dual, corr); len(res) != 0 {
					t.Fatalf("%s d=%d dual=%v qubit %d: residual carries syndrome %v",
						c.CodeName(), c.Distance(), dual, q, res)
				}
				if c.Distance() >= 3 {
					if p1, p2 := c.LogicalParity(dual, corr); p1 || p2 {
						t.Fatalf("%s d=%d dual=%v qubit %d: single error decoded into a logical",
							c.CodeName(), c.Distance(), dual, q)
					}
				}
			}
		}
	}
}

// sectorSyndrome computes the defect set of an error chain from the
// sector graph (boundary node excluded — it absorbs parity).
func sectorSyndrome(c surface.Code, dual bool, errv bits.Vec) []int {
	g := c.SectorGraph(dual)
	syn := make([]bool, c.Checks())
	for q := 0; q < c.Qubits(); q++ {
		if !errv.Get(q) {
			continue
		}
		a, b := g.Ends(q)
		if a < c.Checks() {
			syn[a] = !syn[a]
		}
		if b < c.Checks() {
			syn[b] = !syn[b]
		}
	}
	var defects []int
	for cix, on := range syn {
		if on {
			defects = append(defects, cix)
		}
	}
	return defects
}

// TestCheckPlanesMatchesSyndrome pins the batched CheckPlanes hook to
// the graph-derived syndrome on random error planes.
func TestCheckPlanesMatchesSyndrome(t *testing.T) {
	const lanes = 64
	for _, c := range codesUnderTest() {
		smp := frame.NewAggregateSampler(11, 0)
		active := bits.NewVec(lanes)
		active.SetAll()
		planes := bits.NewVecs(c.Qubits(), lanes)
		for q := range planes {
			smp.Bernoulli(0.2, active, planes[q])
		}
		checks := bits.NewVecs(c.Checks(), lanes)
		errv := bits.NewVec(c.Qubits())
		for _, dual := range []bool{false, true} {
			c.CheckPlanes(dual, planes, checks)
			for lane := 0; lane < lanes; lane++ {
				errv.Clear()
				for q := range planes {
					if planes[q].Get(lane) {
						errv.Flip(q)
					}
				}
				want := sectorSyndrome(c, dual, errv)
				got := make([]int, 0, len(want))
				for cix := 0; cix < c.Checks(); cix++ {
					if checks[cix].Get(lane) {
						got = append(got, cix)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s d=%d dual=%v lane %d: CheckPlanes %v, graph syndrome %v",
						c.CodeName(), c.Distance(), dual, lane, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s d=%d dual=%v lane %d: CheckPlanes %v, graph syndrome %v",
							c.CodeName(), c.Distance(), dual, lane, got, want)
					}
				}
			}
		}
	}
}

func TestMemoryExperimentXZ(t *testing.T) {
	// Zero noise: zero failures, for every family.
	for _, c := range codesUnderTest() {
		r := must(surface.MemoryExperimentXZ(c, 0, 512, 3))
		if r.Failures != 0 || r.FailX != 0 || r.FailZ != 0 {
			t.Errorf("%s d=%d: failures at p=0: %+v", c.CodeName(), c.Distance(), r)
		}
		if r.Code != c.CodeName() || r.D != c.Distance() || r.Samples != 512 {
			t.Errorf("%s: result header %+v", c.CodeName(), r)
		}
	}
	// Determinism: same seed, same counts.
	a := must(surface.MemoryExperimentXZ(surface.Planar(3), 0.05, 4096, 17))
	b := must(surface.MemoryExperimentXZ(surface.Planar(3), 0.05, 4096, 17))
	if a != b {
		t.Errorf("planar memory not deterministic: %+v vs %+v", a, b)
	}
	if a.Failures == 0 {
		t.Errorf("planar d=3 at p=0.05: no failures in %d samples — detector wiring suspect", a.Samples)
	}
	// Below threshold, distance should help (2D threshold ≈ 10%).
	big := must(surface.MemoryExperimentXZ(surface.Rotated(7), 0.03, 4096, 19))
	small := must(surface.MemoryExperimentXZ(surface.Rotated(3), 0.03, 4096, 19))
	if big.FailRate() >= small.FailRate() {
		t.Errorf("rotated at p=0.03: d=7 rate %.4f not below d=3 rate %.4f", big.FailRate(), small.FailRate())
	}
}

// must unwraps a memory driver's result, panicking on its error.
func must[R any](r R, err error) R {
	if err != nil {
		panic(err)
	}
	return r
}
