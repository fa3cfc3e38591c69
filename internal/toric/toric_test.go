package toric

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"time"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/surface"
)

// inCheckSpan reports whether errs is a product of one sector's checks
// (plaquettes, or stars when dual) — a GF(2) row-space test over the
// check rows.
func (t Lattice) inCheckSpan(dual bool, errs bits.Vec) bool {
	sch := t.ExtractionSchedule()
	rows := sch.Plaq
	if dual {
		rows = sch.Star
	}
	m := bits.NewMatrix(len(rows), t.Qubits())
	for c, ord := range rows {
		for _, q := range ord {
			m.Row(c).Flip(q)
		}
	}
	return m.InSpan(errs)
}

// LogicalError reports whether a syndrome-free error pattern is
// homologically nontrivial: trivial residues are exactly the products of
// star operators, so membership in that span is tested directly over
// GF(2). It is the reference the winding detectors are tested against.
func (t Lattice) LogicalError(errs bits.Vec) bool {
	return !t.inCheckSpan(true, errs)
}

// LogicalZError is LogicalError for the Z sector: a star-syndrome-free
// phase-flip pattern is a logical operator exactly when it is not a
// product of plaquette operators.
func (t Lattice) LogicalZError(errs bits.Vec) bool {
	return !t.inCheckSpan(false, errs)
}

// Decode returns a correction for the given defect set.
func (t Lattice) Decode(defects []int, kind DecoderKind) bits.Vec {
	corr := bits.NewVec(t.Qubits())
	t.decodeInto(defects, kind, t.newScratch(), corr)
	return corr
}

// greedyCorrection is the closest-pair-first reference matcher the exact
// decoder is held against: it repeatedly pairs the two closest remaining
// defects and flips a shortest path between them.
func greedyCorrection(l *Lattice, defects []int) bits.Vec {
	corr := bits.NewVec(l.Qubits())
	alive := slices.Clone(defects)
	for len(alive) > 1 {
		bi, bj, best := 0, 1, math.MaxInt
		for i := range alive {
			for j := i + 1; j < len(alive); j++ {
				if d := l.TorusDist(alive[i], alive[j]); d < best {
					bi, bj, best = i, j, d
				}
			}
		}
		l.PathBetween(alive[bi], alive[bj], corr)
		alive = slices.Delete(alive, bj, bj+1) // bj > bi: remove it first
		alive = slices.Delete(alive, bi, bi+1)
	}
	return corr
}

func TestLatticeIndexing(t *testing.T) {
	l := newLattice(4)
	if l.Qubits() != 32 {
		t.Fatalf("qubits %d", l.Qubits())
	}
	// Wrapping.
	if l.HEdge(4, 0) != l.HEdge(0, 0) || l.VEdge(-1, 2) != l.VEdge(3, 2) {
		t.Fatal("torus wrapping broken")
	}
	// All edges distinct.
	seen := map[int]bool{}
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			for _, e := range []int{l.HEdge(x, y), l.VEdge(x, y)} {
				if seen[e] {
					t.Fatalf("duplicate edge index %d", e)
				}
				seen[e] = true
			}
		}
	}
}

func TestStabilizersCommute(t *testing.T) {
	// Every star shares an even number of edges with every plaquette —
	// the commutation property behind Kitaev's mutually commuting
	// Hamiltonian terms (§7.2).
	l := newLattice(5)
	for sy := 0; sy < 5; sy++ {
		for sx := 0; sx < 5; sx++ {
			star := l.StarEdges(sx, sy)
			for py := 0; py < 5; py++ {
				for px := 0; px < 5; px++ {
					plq := l.PlaquetteEdges(px, py)
					shared := 0
					for _, a := range star {
						for _, b := range plq {
							if a == b {
								shared++
							}
						}
					}
					if shared%2 != 0 {
						t.Fatalf("star(%d,%d) and plaquette(%d,%d) share %d edges",
							sx, sy, px, py, shared)
					}
				}
			}
		}
	}
}

func TestSingleErrorMakesDefectPair(t *testing.T) {
	l := newLattice(4)
	errs := bits.NewVec(l.Qubits())
	errs.Flip(l.HEdge(1, 1))
	defects := l.Syndrome(errs)
	if len(defects) != 2 {
		t.Fatalf("single flip should nucleate an anyon pair, got %d defects", len(defects))
	}
}

func TestDefectCountAlwaysEven(t *testing.T) {
	l := newLattice(5)
	rng := rand.New(rand.NewPCG(131, 132))
	for trial := 0; trial < 100; trial++ {
		errs := bits.NewVec(l.Qubits())
		for e := 0; e < l.Qubits(); e++ {
			if rng.Float64() < 0.2 {
				errs.Flip(e)
			}
		}
		if len(l.Syndrome(errs))%2 != 0 {
			t.Fatal("odd defect count on a torus")
		}
	}
}

func TestDecoderCorrectsSingleErrors(t *testing.T) {
	l := newLattice(5)
	for e := 0; e < l.Qubits(); e++ {
		errs := bits.NewVec(l.Qubits())
		errs.Flip(e)
		corr := l.Decode(l.Syndrome(errs), DecoderExact)
		errs.Xor(corr)
		if len(l.Syndrome(errs)) != 0 {
			t.Fatalf("edge %d: correction left defects", e)
		}
		if l.LogicalError(errs) {
			t.Fatalf("edge %d: correction introduced a logical error", e)
		}
	}
}

func TestDecoderCorrectsUpToHalfDistance(t *testing.T) {
	// Any ⌊(L-1)/2⌋ random flips must be corrected by the exact matcher.
	l := newLattice(7)
	rng := rand.New(rand.NewPCG(133, 134))
	for trial := 0; trial < 300; trial++ {
		errs := bits.NewVec(l.Qubits())
		for k := 0; k < 3; k++ {
			errs.Flip(rng.IntN(l.Qubits()))
		}
		work := errs.Clone()
		corr := l.Decode(l.Syndrome(work), DecoderExact)
		work.Xor(corr)
		if len(l.Syndrome(work)) != 0 {
			t.Fatal("residual defects after decoding weight-3 error")
		}
		if l.LogicalError(work) {
			t.Fatalf("weight-3 error misdecoded to a logical on L=7 (trial %d)", trial)
		}
	}
}

func TestHomologyDetection(t *testing.T) {
	// A full noncontractible dual loop is a logical error with empty
	// syndrome: the vertical edges along one row form an x-winding cycle
	// of the dual lattice.
	l := newLattice(4)
	errs := bits.NewVec(l.Qubits())
	for x := 0; x < 4; x++ {
		errs.Flip(l.VEdge(x, 2))
	}
	if len(l.Syndrome(errs)) != 0 {
		t.Fatal("winding loop should be syndrome-free")
	}
	if !l.LogicalError(errs) {
		t.Fatal("winding loop must be a logical error")
	}
	// A contractible dual loop (one star operator) is trivial.
	triv := bits.NewVec(l.Qubits())
	for _, e := range l.StarEdges(1, 1) {
		triv.Flip(e)
	}
	if len(l.Syndrome(triv)) != 0 || l.LogicalError(triv) {
		t.Fatal("star operator must be trivial")
	}
}

// TestPathBetweenConnectsDefects: a path's plaquette syndrome is
// exactly its two end plaquettes, and its weight is their torus
// distance.
func TestPathBetweenConnectsDefects(t *testing.T) { checkPaths(t, false, 135) }

// TestPathBetweenDualConnectsSites is TestPathBetweenConnectsDefects on
// the dual lattice: the path's star syndrome is exactly its two end
// sites, and its weight is their torus distance.
func TestPathBetweenDualConnectsSites(t *testing.T) { checkPaths(t, true, 403) }

func checkPaths(t *testing.T, dual bool, seed uint64) {
	l := newLattice(6)
	walk, syndrome := l.PathBetween, l.Syndrome
	if dual {
		walk, syndrome = l.PathBetweenDual, l.StarSyndrome
	}
	rng := rand.New(rand.NewPCG(seed, seed+1))
	for trial := 0; trial < 100; trial++ {
		a, b := rng.IntN(36), rng.IntN(36)
		if a == b {
			continue
		}
		chain := bits.NewVec(l.Qubits())
		walk(a, b, chain)
		if ends := syndrome(chain); !slices.Equal(ends, []int{min(a, b), max(a, b)}) || chain.Weight() != l.TorusDist(a, b) {
			t.Fatalf("dual=%v: path %d→%d ends on %v with weight %d, want {%d,%d} and %d", dual, a, b, ends, chain.Weight(), min(a, b), max(a, b), l.TorusDist(a, b))
		}
	}
}

func TestExactBeatsGreedyOrTies(t *testing.T) {
	l := newLattice(6)
	rng := rand.New(rand.NewPCG(137, 138))
	worseCount := 0
	for trial := 0; trial < 200; trial++ {
		errs := bits.NewVec(l.Qubits())
		for k := 0; k < 5; k++ {
			errs.Flip(rng.IntN(l.Qubits()))
		}
		defects := l.Syndrome(errs)
		if len(defects) > 12 {
			continue
		}
		ew := l.Decode(defects, DecoderExact).Weight()
		gw := greedyCorrection(&l, defects).Weight()
		if ew > gw {
			worseCount++
		}
	}
	if worseCount > 0 {
		t.Fatalf("exact matching produced heavier corrections %d times", worseCount)
	}
}

func TestMemorySuppressionWithDistance(t *testing.T) {
	// Below threshold the failure rate must fall with L (e^{−αL} shape).
	p := 0.02
	r3 := must(MemoryExperiment(3, p, DecoderExact, 4000, 139))
	r7 := must(MemoryExperiment(7, p, DecoderExact, 4000, 140))
	if r7.FailRate() >= r3.FailRate() && r3.Failures > 0 {
		t.Fatalf("no suppression: L=3 %.4f vs L=7 %.4f", r3.FailRate(), r7.FailRate())
	}
}

func TestMemoryFailsAboveThreshold(t *testing.T) {
	// Far above threshold, bigger lattices are worse (or saturated ~50%).
	r := must(MemoryExperiment(7, 0.25, DecoderUnionFind, 1500, 141))
	if r.FailRate() < 0.2 {
		t.Fatalf("p=0.25 should destroy the memory, failure %.3f", r.FailRate())
	}
}

func TestMemoryExperimentDeterministic(t *testing.T) {
	a := must(MemoryExperiment(5, 0.05, DecoderExact, 700, 17))
	b := must(MemoryExperiment(5, 0.05, DecoderExact, 700, 17))
	if a.Failures != b.Failures || a.Samples != b.Samples {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

func TestThermalSuppression(t *testing.T) {
	cold := must(ThermalMemory(5, 0.5, 6.0, DecoderExact, 3000, 143)) // Δ/T = 6
	hot := must(ThermalMemory(5, 0.5, 1.0, DecoderExact, 3000, 144))  // Δ/T = 1
	if cold.FailRate() >= hot.FailRate() && hot.Failures > 0 {
		t.Fatalf("no thermal suppression: cold %.4f hot %.4f", cold.FailRate(), hot.FailRate())
	}
}

// TestWindingParityMatchesHomologyTester cross-checks the O(L) winding
// detectors against the basis-reduction homology test on random cycles
// (random star products, optionally with winding loops mixed in).
func TestWindingParityMatchesHomologyTester(t *testing.T) {
	l := newLattice(5)
	rng := rand.New(rand.NewPCG(145, 146))
	for trial := 0; trial < 300; trial++ {
		cyc := bits.NewVec(l.Qubits())
		for y := 0; y < l.L; y++ {
			for x := 0; x < l.L; x++ {
				if rng.IntN(2) == 1 {
					for _, e := range l.StarEdges(x, y) {
						cyc.Flip(e)
					}
				}
			}
		}
		wantA, wantB := false, false
		if rng.IntN(2) == 1 { // horizontal dual winding loop
			for x := 0; x < l.L; x++ {
				cyc.Flip(l.VEdge(x, 1))
			}
			wantA = true
		}
		if rng.IntN(2) == 1 { // vertical dual winding loop
			for y := 0; y < l.L; y++ {
				cyc.Flip(l.HEdge(2, y))
			}
			wantB = true
		}
		if len(l.Syndrome(cyc)) != 0 {
			t.Fatal("constructed chain is not a cycle")
		}
		a, b := l.LogicalParity(false, cyc)
		if a != wantA || b != wantB {
			t.Fatalf("trial %d: winding (%v,%v) want (%v,%v)", trial, a, b, wantA, wantB)
		}
		if l.LogicalError(cyc) != (a || b) {
			t.Fatalf("trial %d: detectors disagree with homology tester", trial)
		}
	}
}

// TestBatchMemoryMatchesScalar is the toric leg of the scalar-vs-batch
// equivalence suite: BatchMemory over a lockstep sampler must reproduce,
// shot for shot, the serial per-shot procedure (sample edges in order,
// decode, homology-test the residual) run from the paired PCG streams.
func TestBatchMemoryMatchesScalar(t *testing.T) {
	const lanes = 70 // exercises the tail word
	for _, tc := range []struct {
		l    int
		p    float64
		kind DecoderKind
	}{
		{3, 0.05, DecoderExact},
		{5, 0.03, DecoderExact},
		{5, 0.12, DecoderUnionFind},
		{4, 0.25, DecoderUnionFind},
		{5, 0.25, DecoderExact}, // >14 defects: beyond the old bitmask cap
		{4, 0.06, DecoderUnionFind},
		{5, 0.2, DecoderUnionFind},
	} {
		lat := newLattice(tc.l)
		seed := uint64(1000*tc.l) + uint64(tc.p*1e4)
		fails := lat.BatchMemory(tc.p, tc.kind, lanes, frame.NewLockstepSampler(seed, lanes))
		for lane := 0; lane < lanes; lane++ {
			rng := rand.New(rand.NewPCG(seed, uint64(lane)))
			errs := bits.NewVec(lat.Qubits())
			for e := 0; e < lat.Qubits(); e++ {
				if rng.Float64() < tc.p {
					errs.Flip(e)
				}
			}
			corr := lat.Decode(lat.Syndrome(errs), tc.kind)
			errs.Xor(corr)
			fail := len(lat.Syndrome(errs)) != 0 || lat.LogicalError(errs)
			if fails.Get(lane) != fail {
				t.Fatalf("L=%d p=%v %v lane %d: batch %v scalar %v",
					tc.l, tc.p, tc.kind, lane, fails.Get(lane), fail)
			}
		}
	}
}

func TestTunnelingEstimate(t *testing.T) {
	if tunnelingErrorProb(1.0, 10) >= tunnelingErrorProb(1.0, 5) {
		t.Fatal("tunneling amplitude must fall with separation")
	}
}

// TestAllDecodersClearSyndrome is the shared soundness property: for
// every decoder kind, the correction's syndrome must equal the defect
// set on random error patterns of every density, leaving a closed
// (syndrome-free) residual.
func TestAllDecodersClearSyndrome(t *testing.T) {
	rng := rand.New(rand.NewPCG(151, 152))
	for _, l := range []int{3, 5, 8} {
		lat := newLattice(l)
		for trial := 0; trial < 150; trial++ {
			p := []float64{0.02, 0.08, 0.2, 0.45}[trial%4]
			errs := bits.NewVec(lat.Qubits())
			for e := 0; e < lat.Qubits(); e++ {
				if rng.Float64() < p {
					errs.Flip(e)
				}
			}
			defects := lat.Syndrome(errs)
			for _, kind := range []DecoderKind{DecoderExact, DecoderUnionFind} {
				work := errs.Clone()
				work.Xor(lat.Decode(defects, kind))
				if rest := lat.Syndrome(work); len(rest) != 0 {
					t.Fatalf("L=%d trial %d kind %d: correction left %d defects",
						l, trial, kind, len(rest))
				}
			}
		}
	}
}

// TestUnionFindMatchesExactFailureRate holds the union-find decoder to
// the exact-matching baseline at small L: the two logical failure rates
// must agree within combined statistical error (plus a small systematic
// allowance — union-find is near-optimal, not optimal).
func TestUnionFindMatchesExactFailureRate(t *testing.T) {
	const samples = 6000
	for _, tc := range []struct {
		l int
		p float64
	}{{4, 0.04}, {6, 0.06}} {
		ex := must(MemoryExperiment(tc.l, tc.p, DecoderExact, samples, 161))
		uf := must(MemoryExperiment(tc.l, tc.p, DecoderUnionFind, samples, 161))
		fe, fu := ex.FailRate(), uf.FailRate()
		// Binomial standard errors, combined.
		sigma := math.Sqrt(fe*(1-fe)/samples + fu*(1-fu)/samples)
		if diff := math.Abs(fe - fu); diff > 4*sigma+0.01 {
			t.Fatalf("L=%d p=%v: union-find %.4f vs exact %.4f (diff %.4f > %.4f)",
				tc.l, tc.p, fu, fe, diff, 4*sigma+0.01)
		}
		if fu > 3*fe+4*sigma && fe > 0 {
			t.Fatalf("L=%d p=%v: union-find failure %.4f far above exact %.4f",
				tc.l, tc.p, fu, fe)
		}
	}
}

// TestDecoderComparison orders the correction weights: the exact matcher
// finds the minimum-weight chain with the given boundary, so it is never
// heavier than the closest-pair-first reference or than union-find's
// correction of the same syndrome.
func TestDecoderComparison(t *testing.T) {
	lat := newLattice(6)
	rng := rand.New(rand.NewPCG(163, 164))
	for trial := 0; trial < 300; trial++ {
		errs := bits.NewVec(lat.Qubits())
		for k := 0; k < 8; k++ {
			errs.Flip(rng.IntN(lat.Qubits()))
		}
		defects := lat.Syndrome(errs)
		ew := lat.Decode(defects, DecoderExact).Weight()
		if gw := greedyCorrection(&lat, defects).Weight(); ew > gw {
			t.Fatalf("trial %d: exact weight %d > greedy weight %d", trial, ew, gw)
		}
		if uw := lat.Decode(defects, DecoderUnionFind).Weight(); ew > uw {
			t.Fatalf("trial %d: exact weight %d > union-find weight %d", trial, ew, uw)
		}
	}
}

// TestDecodeStageGOMAXPROCSInvariant is the determinism contract of the
// worker-pool decode stage: the same experiment must produce identical
// failure counts whatever the worker count.
func TestDecodeStageGOMAXPROCSInvariant(t *testing.T) {
	run := func() [2]int {
		var out [2]int
		for i, kind := range []DecoderKind{DecoderExact, DecoderUnionFind} {
			out[i] = must(MemoryExperiment(6, 0.08, kind, 900, 167)).Failures
		}
		return out
	}
	old := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(8)
	parallel := run()
	runtime.GOMAXPROCS(old)
	if serial != parallel {
		t.Fatalf("decode results depend on GOMAXPROCS: 1 → %v, 8 → %v", serial, parallel)
	}
}

// TestLargeDistanceSmoke: the union-find decoder makes L = 16 and L = 32
// memory experiments run — the workloads the old bitmask/greedy path
// could not reach — and below threshold the larger distance must not be
// worse.
func TestLargeDistanceSmoke(t *testing.T) {
	r16 := must(MemoryExperiment(16, 0.04, DecoderUnionFind, 400, 169))
	r32 := must(MemoryExperiment(32, 0.04, DecoderUnionFind, 100, 170))
	if r16.Samples != 400 || r32.Samples != 100 {
		t.Fatal("sample counts wrong")
	}
	if r32.FailRate() > r16.FailRate()+0.05 {
		t.Fatalf("no suppression at scale: L=16 %.4f vs L=32 %.4f", r16.FailRate(), r32.FailRate())
	}
}

// TestDualSectorStabilizers: the dual detectors must be orthogonal to
// every plaquette operator, and star syndromes of plaquette products
// must vanish (the Z-sector mirror of the commutation tests above).
func TestDualSectorStabilizers(t *testing.T) {
	l := newLattice(5)
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			chain := bits.NewVec(l.Qubits())
			for _, e := range l.PlaquetteEdges(x, y) {
				chain.Flip(e)
			}
			if len(l.StarSyndrome(chain)) != 0 {
				t.Fatalf("plaquette (%d,%d) has nonzero star syndrome", x, y)
			}
			if a, b := l.LogicalParity(true, chain); a || b {
				t.Fatalf("plaquette (%d,%d) trips a dual winding detector", x, y)
			}
			if l.LogicalZError(chain) {
				t.Fatalf("plaquette (%d,%d) misread as logical Z", x, y)
			}
		}
	}
}

// TestDualWindingDetectsZLogicals: direct-lattice winding loops are
// syndrome-free logical Z operators and must trip exactly the matching
// dual detector.
func TestDualWindingDetectsZLogicals(t *testing.T) {
	l := newLattice(4)
	// Vertical winding: a column of vertical edges.
	vloop := bits.NewVec(l.Qubits())
	for y := 0; y < 4; y++ {
		vloop.Flip(l.VEdge(2, y))
	}
	if len(l.StarSyndrome(vloop)) != 0 {
		t.Fatal("v-column is not a cycle")
	}
	if a, b := l.LogicalParity(true, vloop); !a || b {
		t.Fatalf("v-column winding read (%v,%v), want (true,false)", a, b)
	}
	if !l.LogicalZError(vloop) {
		t.Fatal("v-column must be a logical Z")
	}
	// Horizontal winding: a row of horizontal edges.
	hloop := bits.NewVec(l.Qubits())
	for x := 0; x < 4; x++ {
		hloop.Flip(l.HEdge(x, 1))
	}
	if len(l.StarSyndrome(hloop)) != 0 {
		t.Fatal("h-row is not a cycle")
	}
	if a, b := l.LogicalParity(true, hloop); a || !b {
		t.Fatalf("h-row winding read (%v,%v), want (false,true)", a, b)
	}
	if !l.LogicalZError(hloop) {
		t.Fatal("h-row must be a logical Z")
	}
}

// TestDualWindingMatchesZHomology cross-checks the O(L) dual detectors
// against the plaquette-span homology tester on random Z cycles.
func TestDualWindingMatchesZHomology(t *testing.T) {
	l := newLattice(5)
	rng := rand.New(rand.NewPCG(401, 402))
	for trial := 0; trial < 200; trial++ {
		cyc := bits.NewVec(l.Qubits())
		for y := 0; y < l.L; y++ {
			for x := 0; x < l.L; x++ {
				if rng.IntN(2) == 1 {
					for _, e := range l.PlaquetteEdges(x, y) {
						cyc.Flip(e)
					}
				}
			}
		}
		wantA, wantB := false, false
		if rng.IntN(2) == 1 {
			for y := 0; y < l.L; y++ {
				cyc.Flip(l.VEdge(1, y))
			}
			wantA = true
		}
		if rng.IntN(2) == 1 {
			for x := 0; x < l.L; x++ {
				cyc.Flip(l.HEdge(x, 2))
			}
			wantB = true
		}
		if len(l.StarSyndrome(cyc)) != 0 {
			t.Fatal("constructed Z chain is not a cycle")
		}
		a, b := l.LogicalParity(true, cyc)
		if a != wantA || b != wantB {
			t.Fatalf("trial %d: dual winding (%v,%v) want (%v,%v)", trial, a, b, wantA, wantB)
		}
		if l.LogicalZError(cyc) != (a || b) {
			t.Fatalf("trial %d: dual detectors disagree with Z homology tester", trial)
		}
	}
}

// TestMemoryXZSectorsSymmetric: with independent X and Z flips at the
// same rate, the two sectors' failure rates must agree within
// statistical error (the dual lattice is an isomorphic decoding
// problem), the either-sector count must sit between the larger sector
// and the sum, and distance must suppress it below threshold.
func TestMemoryXZSectorsSymmetric(t *testing.T) {
	const samples = 4000
	r := must(surface.MemoryExperimentXZ(Cached(5), 0.04, samples, 405))
	fx, fz := float64(r.FailX)/samples, float64(r.FailZ)/samples
	sigma := math.Sqrt(fx*(1-fx)/samples + fz*(1-fz)/samples)
	if diff := math.Abs(fx - fz); diff > 4*sigma+0.01 {
		t.Fatalf("sector asymmetry: X %.4f vs Z %.4f (diff %.4f)", fx, fz, diff)
	}
	if r.Failures < max(r.FailX, r.FailZ) || r.Failures > r.FailX+r.FailZ {
		t.Fatalf("combined failures %d inconsistent with X %d, Z %d", r.Failures, r.FailX, r.FailZ)
	}
	big := must(surface.MemoryExperimentXZ(Cached(9), 0.04, samples, 406))
	if big.FailRate() >= r.FailRate() && r.Failures > 0 {
		t.Fatalf("no dual-sector suppression: L=5 %.4f vs L=9 %.4f", r.FailRate(), big.FailRate())
	}
}

// TestBatchMemoryMatchesSurfaceX holds the two 2D Monte Carlo paths on
// the torus to each other: on the same sampler, BatchMemory's union-find
// failure mask is the X mask of surface.BatchMemoryXZ, lane for lane
// (both draw the X edge planes first, in edge order, and decode them over
// the same primal graph).
func TestBatchMemoryMatchesSurfaceX(t *testing.T) {
	for _, l := range []int{3, 4, 5, 8} {
		lat := Cached(l)
		for _, p := range []float64{0.01, 0.05, 0.12} {
			for _, lanes := range []int{64, 130} {
				seed := uint64(1000*l+lanes) + uint64(p*1e4)
				got := lat.BatchMemory(p, DecoderUnionFind, lanes, frame.NewLockstepSampler(seed, lanes))
				want, _ := surface.BatchMemoryXZ(lat, p, lanes, frame.NewLockstepSampler(seed, lanes))
				if !got.Equal(want) {
					t.Fatalf("L=%d p=%v lanes=%d: toric mask weight %d, surface X mask weight %d",
						l, p, lanes, got.Weight(), want.Weight())
				}
			}
		}
	}
}

// must unwraps a memory driver's result, panicking on its error.
func must[R any](r R, err error) R {
	if err != nil {
		panic(err)
	}
	return r
}

// tunnelingErrorProb is the §7.1 zero-temperature estimate: the amplitude
// for a virtual charged pair to exchange quantum numbers between fluxons
// held a distance L apart is of order e^{−mL}.
func tunnelingErrorProb(m float64, l int) float64 {
	return math.Exp(-m * float64(l))
}

// TestMemoryDriversRejectBadInput: the 2D memory drivers return an
// error for a rate that is NaN or outside [0, 1], an empty sample, a
// lattice under 2×2 or a missing code — and return at all: a NaN rate
// used to send the sampler's gap walk into a loop that never ended, so
// every call runs under a bounded wait.
func TestMemoryDriversRejectBadInput(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"NaN rate", func() error { _, err := MemoryExperiment(5, nan, DecoderUnionFind, 64, 1); return err }},
		{"+Inf rate", func() error { _, err := MemoryExperiment(5, math.Inf(1), DecoderUnionFind, 64, 1); return err }},
		{"rate above 1", func() error { _, err := MemoryExperiment(5, 1.5, DecoderUnionFind, 64, 1); return err }},
		{"negative rate", func() error { _, err := MemoryExperiment(5, -0.1, DecoderExact, 64, 1); return err }},
		{"no samples", func() error { _, err := MemoryExperiment(5, 0.05, DecoderUnionFind, 0, 1); return err }},
		{"L = 1", func() error { _, err := MemoryExperiment(1, 0.05, DecoderUnionFind, 64, 1); return err }},
		{"L = 0", func() error { _, err := MemoryExperiment(0, 0.05, DecoderUnionFind, 64, 1); return err }},
		{"thermal NaN p0", func() error { _, err := ThermalMemory(5, nan, 2, DecoderUnionFind, 64, 1); return err }},
		{"thermal rate above 1", func() error { _, err := ThermalMemory(5, 3, 0, DecoderUnionFind, 64, 1); return err }},
		{"thermal NaN Δ/T", func() error { _, err := ThermalMemory(5, 0.5, nan, DecoderExact, 64, 1); return err }},
		{"XZ NaN rate", func() error { _, err := surface.MemoryExperimentXZ(surface.Planar(3), nan, 64, 1); return err }},
		{"XZ rate above 1", func() error { _, err := surface.MemoryExperimentXZ(Cached(3), 1.5, 64, 1); return err }},
		{"XZ negative rate", func() error { _, err := surface.MemoryExperimentXZ(surface.Rotated(3), -0.1, 64, 1); return err }},
		{"XZ no samples", func() error { _, err := surface.MemoryExperimentXZ(Cached(3), 0.05, 0, 1); return err }},
		{"XZ nil code", func() error { _, err := surface.MemoryExperimentXZ(nil, 0.05, 64, 1); return err }},
	} {
		done := make(chan error, 1)
		go func() { done <- tc.run() }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: no error", tc.name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the driver neither returned nor failed", tc.name)
		}
	}
}
