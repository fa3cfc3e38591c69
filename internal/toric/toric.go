// Package toric implements Kitaev's toric code (Preskill §7.1–§7.2,
// ref. 25): qubits on the edges of an L×L torus, commuting four-body
// check operators on sites and plaquettes (Fig. 17), quasiparticle pairs
// created by error chains, and a matching decoder. It provides the
// passive-quantum-memory experiments: exponential suppression of the
// logical error rate with the code distance L (the paper's e^{−mL}
// tunneling estimate) and with the inverse temperature Δ/T (the thermal
// anyon plasma).
//
// Decoding is delegated to internal/decoder: a near-linear union-find
// decoder for the hot Monte Carlo path and a polynomial exact
// minimum-weight matcher as the accuracy baseline. The lattice carries
// both error sectors (plaquette syndromes and the primal graph for bit
// flips, star syndromes and the dual graph for phase flips); its own
// Monte Carlo decodes the bit-flip sector, as a worker-pool stage over
// word-aligned lane spans, bit-identical for any GOMAXPROCS. Two-sector
// memory runs through internal/surface, noisy syndrome extraction over
// repeated rounds through internal/spacetime, both built on this
// package's lattices.
package toric

import (
	"math"
	"sync"
	"sync/atomic"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
)

// Lattice is an L×L torus with one qubit per edge (2L² qubits).
// Horizontal edge (x,y) has index y·L+x; vertical edge (x,y) has index
// L²+y·L+x. Arithmetic is mod L in both directions.
//
// Both error sectors are first-class: bit-flip (X) chains end on
// plaquette (Z-check) defects and decode over the primal graph;
// phase-flip (Z) chains end on star (X-check) defects and decode over
// the dual graph, whose sites reuse the same y·L+x indexing — the
// dual-lattice trick that makes one decoder subsystem serve both.
type Lattice struct {
	L int
	// homology membership testers: XOR bases of the trivial-cycle spaces
	// (star products for the X sector, plaquette products for the Z
	// sector), indexed by leading column.
	hbasis []bits.Vec
	hset   []bool
	zbasis []bits.Vec
	zset   []bool
	// Winding detectors: two fixed edge sets orthogonal to every star
	// operator whose GF(2) inner products with a syndrome-free chain read
	// off its homology class directly (O(L) instead of a basis
	// reduction). det1 is the column of vertical edges at x=0 (odd
	// intersection ⇔ the chain winds horizontally on the dual lattice);
	// det2 is the row of horizontal edges at y=0. det1Z/det2Z are the
	// dual pair, orthogonal to every plaquette: the row of vertical edges
	// at y=0 and the column of horizontal edges at x=0.
	det1, det2   bits.Vec
	det1Z, det2Z bits.Vec
	// Support lists of the detectors, precomputed for the batch path.
	det1Sup, det2Sup   []int
	det1ZSup, det2ZSup []int
	// wrapDist[d] = min(d, L−d): the one-axis torus metric, cached so a
	// plaquette distance is two table lookups shared by every lane and
	// worker.
	wrapDist []int32
	// graph is the primal decoding graph (plaquettes = nodes, qubits =
	// edges); dualGraph is the star-sector graph (sites = nodes). Both
	// are immutable and shared across all decoder instances.
	graph     *decoder.Graph
	dualGraph *decoder.Graph
	// scratch recycles per-worker decoder state (union-find arrays,
	// matcher arrays, defect and correction buffers) across decodes.
	scratch *sync.Pool
}

// NewLattice returns an L×L toric lattice (L ≥ 2).
func NewLattice(l int) Lattice {
	if l < 2 {
		panic("toric: lattice size must be at least 2")
	}
	t := Lattice{L: l}
	t.buildHomologyTesters()
	t.det1 = bits.NewVec(t.Qubits())
	t.det2 = bits.NewVec(t.Qubits())
	t.det1Z = bits.NewVec(t.Qubits())
	t.det2Z = bits.NewVec(t.Qubits())
	for i := 0; i < l; i++ {
		t.det1.Flip(t.VEdge(0, i))
		t.det2.Flip(t.HEdge(i, 0))
		t.det1Z.Flip(t.VEdge(i, 0))
		t.det2Z.Flip(t.HEdge(0, i))
	}
	t.det1Sup = t.det1.Support()
	t.det2Sup = t.det2.Support()
	t.det1ZSup = t.det1Z.Support()
	t.det2ZSup = t.det2Z.Support()
	t.wrapDist = make([]int32, l)
	for d := 0; d < l; d++ {
		if l-d < d {
			t.wrapDist[d] = int32(l - d)
		} else {
			t.wrapDist[d] = int32(d)
		}
	}
	// Primal decoding graph: horizontal edge h(x,y) separates plaquettes
	// (x,y) and (x,y−1); vertical edge v(x,y) separates (x,y) and
	// (x−1,y). Dual graph: the same qubit edges between the sites they
	// join — h(x,y) joins sites (x,y)–(x+1,y), v(x,y) joins (x,y)–(x,y+1).
	ends := make([][2]int32, t.Qubits())
	dualEnds := make([][2]int32, t.Qubits())
	for y := 0; y < l; y++ {
		for x := 0; x < l; x++ {
			ends[t.HEdge(x, y)] = [2]int32{int32(y*l + x), int32(mod(y-1, l)*l + x)}
			ends[t.VEdge(x, y)] = [2]int32{int32(y*l + x), int32(y*l + mod(x-1, l))}
			dualEnds[t.HEdge(x, y)] = [2]int32{int32(y*l + x), int32(y*l + mod(x+1, l))}
			dualEnds[t.VEdge(x, y)] = [2]int32{int32(y*l + x), int32(mod(y+1, l)*l + x)}
		}
	}
	t.graph = decoder.NewGraph(t.NumChecks(), ends)
	t.dualGraph = decoder.NewGraph(t.NumChecks(), dualEnds)
	graph, qubits := t.graph, t.Qubits()
	t.scratch = &sync.Pool{New: func() any {
		return &decodeScratch{
			uf:   decoder.NewUnionFind(graph),
			corr: bits.NewVec(qubits),
		}
	}}
	return t
}

// Graph returns the primal decoding graph (plaquettes = nodes, qubit
// edges between the two plaquettes they bound). It is immutable.
func (t Lattice) Graph() *decoder.Graph { return t.graph }

// DualGraph returns the star-sector decoding graph (sites = nodes, qubit
// edges between the two sites they join). It is immutable.
func (t Lattice) DualGraph() *decoder.Graph { return t.dualGraph }

// WindingParity returns the two homology-class bits of a syndrome-free
// chain: whether it crosses the x=0 vertical-edge column an odd number of
// times and the y=0 horizontal-edge row an odd number of times. For
// cycles (zero syndrome) the pair is (0,0) exactly when the chain is a
// product of star operators; either bit set means a logical error.
func (t Lattice) WindingParity(errs bits.Vec) (bool, bool) {
	return errs.Dot(t.det1), errs.Dot(t.det2)
}

// WindingParityDual is WindingParity for the Z sector: the homology bits
// of a star-syndrome-free phase-flip chain against the dual detector
// pair (the y=0 vertical-edge row and the x=0 horizontal-edge column,
// each orthogonal to every plaquette operator).
func (t Lattice) WindingParityDual(errs bits.Vec) (bool, bool) {
	return errs.Dot(t.det1Z), errs.Dot(t.det2Z)
}

// buildHomologyTesters builds XOR bases of the trivial-chain spaces of
// both sectors. An X pattern acts trivially on the code space exactly
// when it is a product of star (X-stabilizer) operators; a Z pattern,
// when it is a product of plaquette (Z-stabilizer) operators.
// Syndrome-free chains outside the span are logical operators
// (noncontractible cycles of the dual or direct lattice respectively).
func (t *Lattice) buildHomologyTesters() {
	t.hbasis = make([]bits.Vec, t.Qubits())
	t.hset = make([]bool, t.Qubits())
	t.zbasis = make([]bits.Vec, t.Qubits())
	t.zset = make([]bool, t.Qubits())
	for y := 0; y < t.L; y++ {
		for x := 0; x < t.L; x++ {
			row := bits.NewVec(t.Qubits())
			for _, e := range t.StarEdges(x, y) {
				row.Flip(e)
			}
			insertBasis(t.hbasis, t.hset, row)
			zrow := bits.NewVec(t.Qubits())
			for _, e := range t.PlaquetteEdges(x, y) {
				zrow.Flip(e)
			}
			insertBasis(t.zbasis, t.zset, zrow)
		}
	}
}

// insertBasis adds a vector to an XOR basis (standard leading-column
// reduction).
func insertBasis(basis []bits.Vec, set []bool, v bits.Vec) {
	for c := 0; c < v.Len(); c++ {
		if !v.Get(c) {
			continue
		}
		if !set[c] {
			basis[c] = v
			set[c] = true
			return
		}
		v.Xor(basis[c])
	}
}

// inSpan reduces v against a basis and reports whether it vanishes.
func inSpan(basis []bits.Vec, set []bool, v bits.Vec) bool {
	w := v.Clone()
	for c := 0; c < w.Len(); c++ {
		if !w.Get(c) {
			continue
		}
		if !set[c] {
			return false
		}
		w.Xor(basis[c])
	}
	return true
}

// Qubits returns the number of physical qubits, 2L².
func (t Lattice) Qubits() int { return 2 * t.L * t.L }

// HEdge returns the index of the horizontal edge at (x, y).
func (t Lattice) HEdge(x, y int) int {
	return mod(y, t.L)*t.L + mod(x, t.L)
}

// VEdge returns the index of the vertical edge at (x, y).
func (t Lattice) VEdge(x, y int) int {
	return t.L*t.L + mod(y, t.L)*t.L + mod(x, t.L)
}

func mod(a, l int) int { return ((a % l) + l) % l }

// PlaquetteEdges returns the four edges of the plaquette at (x, y); the
// plaquette (Z-check) detects bit-flip chains ending inside it.
func (t Lattice) PlaquetteEdges(x, y int) [4]int {
	return [4]int{
		t.HEdge(x, y),
		t.HEdge(x, y+1),
		t.VEdge(x, y),
		t.VEdge(x+1, y),
	}
}

// StarEdges returns the four edges meeting at site (x, y); the star
// (X-check) detects phase-flip chains on the dual lattice.
func (t Lattice) StarEdges(x, y int) [4]int {
	return [4]int{
		t.HEdge(x, y),
		t.HEdge(x-1, y),
		t.VEdge(x, y),
		t.VEdge(x, y-1),
	}
}

// NumChecks returns the number of plaquettes (= sites) on the torus.
func (t Lattice) NumChecks() int { return t.L * t.L }

// Syndrome computes the plaquette syndrome of a bit-flip error pattern:
// defect (anyon) positions are plaquettes with odd boundary parity.
func (t Lattice) Syndrome(errs bits.Vec) []int {
	var defects []int
	for y := 0; y < t.L; y++ {
		for x := 0; x < t.L; x++ {
			parity := false
			for _, e := range t.PlaquetteEdges(x, y) {
				if errs.Get(e) {
					parity = !parity
				}
			}
			if parity {
				defects = append(defects, y*t.L+x)
			}
		}
	}
	return defects
}

// LogicalError reports whether a syndrome-free error pattern is
// homologically nontrivial: trivial residues are exactly the products of
// star operators, so membership in that span is tested directly over
// GF(2).
func (t Lattice) LogicalError(errs bits.Vec) bool {
	return !inSpan(t.hbasis, t.hset, errs)
}

// LogicalZError is LogicalError for the Z sector: a star-syndrome-free
// phase-flip pattern is a logical operator exactly when it is not a
// product of plaquette operators.
func (t Lattice) LogicalZError(errs bits.Vec) bool {
	return !inSpan(t.zbasis, t.zset, errs)
}

// StarSyndrome computes the star syndrome of a phase-flip error pattern:
// defect positions are sites with odd incident parity. Site (x,y) has
// index y·L+x, the same indexing as plaquettes, so distances, paths and
// decoding graphs transfer between the sectors unchanged.
func (t Lattice) StarSyndrome(errs bits.Vec) []int {
	var defects []int
	for y := 0; y < t.L; y++ {
		for x := 0; x < t.L; x++ {
			parity := false
			for _, e := range t.StarEdges(x, y) {
				if errs.Get(e) {
					parity = !parity
				}
			}
			if parity {
				defects = append(defects, y*t.L+x)
			}
		}
	}
	return defects
}

// TorusDist is the Manhattan distance between plaquettes (equivalently
// sites — both use y·L+x indexing) on the torus.
func (t *Lattice) TorusDist(a, b int) int {
	ax, ay := a%t.L, a/t.L
	bx, by := b%t.L, b/t.L
	dx := ax - bx
	if dx < 0 {
		dx = -dx
	}
	dy := ay - by
	if dy < 0 {
		dy = -dy
	}
	return int(t.wrapDist[dx] + t.wrapDist[dy])
}

// PathBetween flips a shortest error chain connecting plaquettes a and b
// into out (move in x first, then y, wrapping the short way).
func (t *Lattice) PathBetween(a, b int, out bits.Vec) {
	ax, ay := a%t.L, a/t.L
	bx, by := b%t.L, b/t.L
	// Walk in x: crossing from plaquette (x,y) to (x+1,y) flips the
	// vertical edge v(x+1, y).
	stepX := 1
	dx := mod(bx-ax, t.L)
	if dx > t.L-dx {
		stepX = -1
		dx = t.L - dx
	}
	x, y := ax, ay
	for i := 0; i < dx; i++ {
		if stepX == 1 {
			out.Flip(t.VEdge(x+1, y))
			x = mod(x+1, t.L)
		} else {
			out.Flip(t.VEdge(x, y))
			x = mod(x-1, t.L)
		}
	}
	// Walk in y: crossing from (x,y) to (x,y+1) flips h(x, y+1).
	stepY := 1
	dy := mod(by-ay, t.L)
	if dy > t.L-dy {
		stepY = -1
		dy = t.L - dy
	}
	for i := 0; i < dy; i++ {
		if stepY == 1 {
			out.Flip(t.HEdge(x, y+1))
			y = mod(y+1, t.L)
		} else {
			out.Flip(t.HEdge(x, y))
			y = mod(y-1, t.L)
		}
	}
}

// PathBetweenDual is PathBetween on the dual lattice: it flips a shortest
// phase-flip chain connecting sites a and b into out. Crossing from site
// (x,y) to (x+1,y) flips h(x,y); from (x,y) to (x,y+1) flips v(x,y).
func (t *Lattice) PathBetweenDual(a, b int, out bits.Vec) {
	ax, ay := a%t.L, a/t.L
	bx, by := b%t.L, b/t.L
	stepX := 1
	dx := mod(bx-ax, t.L)
	if dx > t.L-dx {
		stepX = -1
		dx = t.L - dx
	}
	x, y := ax, ay
	for i := 0; i < dx; i++ {
		if stepX == 1 {
			out.Flip(t.HEdge(x, y))
			x = mod(x+1, t.L)
		} else {
			out.Flip(t.HEdge(x-1, y))
			x = mod(x-1, t.L)
		}
	}
	stepY := 1
	dy := mod(by-ay, t.L)
	if dy > t.L-dy {
		stepY = -1
		dy = t.L - dy
	}
	for i := 0; i < dy; i++ {
		if stepY == 1 {
			out.Flip(t.VEdge(x, y))
			y = mod(y+1, t.L)
		} else {
			out.Flip(t.VEdge(x, y-1))
			y = mod(y-1, t.L)
		}
	}
}

// DecoderKind selects the decoding strategy.
type DecoderKind int

// Decoders, numbered from 1 so every printed or recorded kind keeps its
// value; 0 names no decoder.
const (
	// DecoderExact finds a minimum-weight perfect matching with the
	// polynomial (O(n³)-style) blossom matcher — exact at any defect
	// count; the accuracy baseline.
	DecoderExact DecoderKind = iota + 1
	// DecoderUnionFind is the near-linear weighted-growth union-find
	// decoder — the production decoder for large-L experiments.
	DecoderUnionFind
)

// decodeScratch carries one worker's reusable decoder state. Instances
// live in the lattice's sync.Pool, so any decode path — public one-off
// calls and batch workers alike — recycles buffers instead of
// reallocating per call.
type decodeScratch struct {
	uf      *decoder.UnionFind
	matcher decoder.Matcher
	grid    decoder.DefectGrid
	pairs   [][2]int
	defects []int
	corr    bits.Vec
}

func (s *decodeScratch) takePairs(n int) [][2]int {
	if cap(s.pairs) < n {
		s.pairs = make([][2]int, 0, n)
	}
	return s.pairs[:0]
}

// Decode returns a correction for the given defect set.
func (t Lattice) Decode(defects []int, kind DecoderKind) bits.Vec {
	corr := bits.NewVec(t.Qubits())
	scr := t.scratch.Get().(*decodeScratch)
	t.decodeInto(defects, kind, scr, corr)
	t.scratch.Put(scr)
	return corr
}

// decodeInto flips a correction for the defect set into corr. All decode
// paths (scalar and batch) funnel through here, so every path shares one
// deterministic tie-break per decoder kind.
func (t *Lattice) decodeInto(defects []int, kind DecoderKind, scr *decodeScratch, corr bits.Vec) {
	if kind == DecoderUnionFind {
		scr.uf.Decode(defects, func(e int) { corr.Flip(e) })
		return
	}
	for _, pr := range t.matchDefects(defects, scr) {
		t.PathBetween(pr[0], pr[1], corr)
	}
}

// matchDefects pairs up the defect set at minimum total torus distance.
// The returned pairs alias scr and are valid until its next use.
func (t *Lattice) matchDefects(defects []int, scr *decodeScratch) [][2]int {
	switch len(defects) {
	case 0:
		return nil
	case 2:
		// One pair: no search needed.
		return append(scr.takePairs(1), [2]int{defects[0], defects[1]})
	case 4:
		return t.matchFour(defects, scr)
	}
	return t.mwpmMatch(defects, scr)
}

// matchFour picks the lightest of the three pairings of four defects
// directly — the dominant nontrivial case at low error rates, decided
// without touching the matcher.
func (t *Lattice) matchFour(defects []int, scr *decodeScratch) [][2]int {
	d01 := t.TorusDist(defects[0], defects[1])
	d23 := t.TorusDist(defects[2], defects[3])
	d02 := t.TorusDist(defects[0], defects[2])
	d13 := t.TorusDist(defects[1], defects[3])
	d03 := t.TorusDist(defects[0], defects[3])
	d12 := t.TorusDist(defects[1], defects[2])
	best, bi := d01+d23, 1
	if c := d02 + d13; c < best {
		best, bi = c, 2
	}
	if c := d03 + d12; c < best {
		bi = 3
	}
	pairs := scr.takePairs(2)
	switch bi {
	case 1:
		return append(pairs, [2]int{defects[0], defects[1]}, [2]int{defects[2], defects[3]})
	case 2:
		return append(pairs, [2]int{defects[0], defects[2]}, [2]int{defects[1], defects[3]})
	}
	return append(pairs, [2]int{defects[0], defects[3]}, [2]int{defects[1], defects[2]})
}

// mwpmMatch is the polynomial exact matcher on the torus distance graph.
// Large defect sets go through the pruned (sparse-blossom) path: a grid
// bucket index over the defect positions enumerates ~O(n·k) locally
// short candidate edges for the engine (instead of scanning all n²
// pairs), with dual pricing restoring any cutoff casualty, so the
// result weight is exactly the dense optimum at a fraction of the cost.
func (t *Lattice) mwpmMatch(defects []int, scr *decodeScratch) [][2]int {
	n := len(defects)
	weight := func(i, j int) int64 {
		return int64(t.TorusDist(defects[i], defects[j]))
	}
	var idx [][2]int32
	if n > decoder.SparseMatchMin {
		cutoff := matchCutoff(t.L*t.L, n)
		scr.grid.Reset(t.L, int(cutoff), 0, 0, 1)
		for _, d := range defects {
			scr.grid.Add(d%t.L, d/t.L, 0)
		}
		idx = scr.matcher.MinWeightPairsIndexed(n, weight, cutoff,
			func(i int, r int64, visit func(j int)) {
				scr.grid.VisitWithin(i, int(r), 0, visit)
			})
	} else {
		idx = scr.matcher.MinWeightPairs(n, weight)
	}
	pairs := scr.takePairs(len(idx))
	for _, pr := range idx {
		pairs = append(pairs, [2]int{defects[pr[0]], defects[pr[1]]})
	}
	return pairs
}

// matchCutoff picks the pruning radius for n defects on a lattice of the
// given check count: a few mean nearest-neighbor spacings, so each defect
// keeps O(1) candidate partners and the staged edge count stays ~O(n).
func matchCutoff(area, n int) int64 {
	mean := 1
	for mean*mean*n < 4*area {
		mean++
	}
	return int64(3 * mean)
}

// MemoryResult summarizes a toric-memory Monte Carlo run.
type MemoryResult struct {
	L        int
	P        float64
	Samples  int
	Failures int
}

// FailRate returns the logical failure probability.
func (r MemoryResult) FailRate() float64 { return float64(r.Failures) / float64(r.Samples) }

// MemoryExperiment applies i.i.d. bit flips with probability p to every
// edge, decodes, and counts homologically nontrivial residues — the
// passive-memory benchmark whose failure rate falls like e^{−αL} below
// threshold (§7.1's "if the quasiparticles are kept far apart, the
// probability of an error will be extremely low"). Shots run on the
// bit-plane batch path, fanned out over the CPUs in deterministic
// seed-per-chunk batches.
func MemoryExperiment(l int, p float64, kind DecoderKind, samples int, seed uint64) MemoryResult {
	t := cachedLattice(l)
	var fails atomic.Int64
	frame.ForEachChunk(samples, seed, func(lanes int, smp frame.Sampler) {
		fails.Add(int64(t.BatchMemory(p, kind, lanes, smp).Weight()))
	})
	return MemoryResult{L: l, P: p, Samples: samples, Failures: int(fails.Load())}
}

// latticeCache memoizes constructed lattices: experiments sweep (L, p)
// grids and the homology tester is immutable after construction, so the
// same lattice is safely shared across calls and workers.
var latticeCache sync.Map // int → *Lattice

// Cached returns the memoized lattice of size l, shared across callers
// (the space-time subsystem builds its decoding volumes on top of it).
func Cached(l int) *Lattice { return cachedLattice(l) }

func cachedLattice(l int) *Lattice {
	if v, ok := latticeCache.Load(l); ok {
		return v.(*Lattice)
	}
	t := NewLattice(l)
	v, _ := latticeCache.LoadOrStore(l, &t)
	return v.(*Lattice)
}

// BatchMemory runs `lanes` independent shots of the passive-memory
// experiment as bit-planes over the given sampler and returns the
// per-lane failure mask. Edge sampling and syndrome extraction are
// word-parallel across lanes; the per-lane decodes run as a worker-pool
// stage over word-aligned lane spans. Under a lockstep sampler lane i
// reproduces a scalar shot drawn from the paired stream edge by edge.
func (t *Lattice) BatchMemory(p float64, kind DecoderKind, lanes int, smp frame.Sampler) bits.Vec {
	nq, nc := t.Qubits(), t.NumChecks()
	active := bits.NewVec(lanes)
	active.SetAll()
	// Sample one error plane per edge, in edge order (the scalar draw
	// order within each lane).
	planes := bits.NewVecs(nq, lanes)
	for e := 0; e < nq; e++ {
		smp.Bernoulli(p, active, planes[e])
	}
	// Plaquette syndrome planes: one XOR chain of four edge planes per
	// check, check-major; then the winding parities of the raw error
	// planes, batched.
	checks := bits.NewVecs(nc, lanes)
	t.PlaquetteSyndromePlanes(planes, checks)
	p1 := bits.NewVec(lanes)
	p2 := bits.NewVec(lanes)
	t.WindingPlanes(planes, p1, p2)
	// Pivot to lane-major syndromes so each decode worker reads its own
	// lanes' bit-vectors and extracts sparse defect lists by word scans.
	syn := bits.NewVecs(lanes, nc)
	bits.TransposePlanes(syn, checks)
	// Decode stage: frame.ForEachLaneSpan hands word-aligned lane spans to
	// the CPUs, each span owning its words of the failure mask outright
	// and drawing private scratch from the lattice pool, so the mask is
	// bit-identical for any worker count or scheduling order. Per lane:
	// extract the sparse defect list (word scan + trailing-zero walk),
	// decode it, and fold the correction's winding parities into the
	// error chain's. The correction's syndrome equals the defect set by
	// construction, so the residual is always a cycle and the winding
	// parities decide failure.
	fails := bits.NewVec(lanes)
	frame.ForEachLaneSpan(lanes, func(lo, hi int) {
		scr := t.scratch.Get().(*decodeScratch)
		for lane := lo; lane < hi; lane++ {
			scr.defects = syn[lane].AppendSupport(scr.defects[:0])
			l1, l2 := p1.Get(lane), p2.Get(lane)
			if len(scr.defects) > 0 {
				scr.corr.Clear()
				t.decodeInto(scr.defects, kind, scr, scr.corr)
				l1 = l1 != scr.corr.Dot(t.det1)
				l2 = l2 != scr.corr.Dot(t.det2)
			}
			if l1 || l2 {
				fails.Set(lane, true)
			}
		}
		t.scratch.Put(scr)
	})
	return fails
}

// PlaquetteSyndromePlanes fills check-major syndrome planes (one vector
// per check, one bit per lane) from the edge error planes.
func (t *Lattice) PlaquetteSyndromePlanes(planes, checks []bits.Vec) {
	xorSupports(t.ExtractionSchedule().Plaq, planes, checks)
}

// StarSyndromePlanes is PlaquetteSyndromePlanes for the Z sector.
func (t *Lattice) StarSyndromePlanes(planes, checks []bits.Vec) {
	xorSupports(t.ExtractionSchedule().Star, planes, checks)
}

// xorSupports writes into each check plane the XOR of its four support
// planes, read off the memoized schedule's tables (a check's Plaq / Star
// entry is its PlaquetteEdges / StarEdges): no arithmetic in the loop.
func xorSupports(sup [][4]int, planes, checks []bits.Vec) {
	for c, e := range sup {
		cv := checks[c]
		cv.CopyFrom(planes[e[0]])
		cv.Xor(planes[e[1]])
		cv.Xor(planes[e[2]])
		cv.Xor(planes[e[3]])
	}
}

// windingPlanes accumulates the two detector parities of the error
// planes into p1, p2 using the given support lists.
func windingPlanes(planes []bits.Vec, sup1, sup2 []int, p1, p2 bits.Vec) {
	for _, e := range sup1 {
		p1.Xor(planes[e])
	}
	for _, e := range sup2 {
		p2.Xor(planes[e])
	}
}

// WindingPlanes accumulates the primal winding-detector parities of
// edge-major error planes into p1, p2 (the batched WindingParity).
func (t *Lattice) WindingPlanes(planes []bits.Vec, p1, p2 bits.Vec) {
	windingPlanes(planes, t.det1Sup, t.det2Sup, p1, p2)
}

// WindingPlanesDual is WindingPlanes against the dual (Z-sector)
// detector pair.
func (t *Lattice) WindingPlanesDual(planes []bits.Vec, p1, p2 bits.Vec) {
	windingPlanes(planes, t.det1ZSup, t.det2ZSup, p1, p2)
}

// ThermalResult is one point of the E18 temperature sweep.
type ThermalResult struct {
	DeltaOverT float64
	FlipProb   float64
	MemoryResult
}

// ThermalMemory models the thermal anyon plasma of §7.1: defect pairs are
// nucleated at a rate proportional to the Boltzmann factor e^{−Δ/T}, so
// each edge flips with probability p = p0·e^{−Δ/T} per dwell time; the
// logical failure rate inherits the exponential suppression in Δ/T.
func ThermalMemory(l int, p0, deltaOverT float64, kind DecoderKind, samples int, seed uint64) ThermalResult {
	p := p0 * math.Exp(-deltaOverT)
	return ThermalResult{
		DeltaOverT:   deltaOverT,
		FlipProb:     p,
		MemoryResult: MemoryExperiment(l, p, kind, samples, seed),
	}
}
