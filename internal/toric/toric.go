// Package toric implements Kitaev's toric code (Preskill §7.1–§7.2,
// ref. 25): qubits on the edges of an L×L torus, commuting four-body
// check operators on sites and plaquettes (Fig. 17), quasiparticle pairs
// created by error chains, and a matching decoder. It provides the
// passive-quantum-memory experiments: exponential suppression of the
// logical error rate with the code distance L (the paper's e^{−mL}
// tunneling estimate) and with the inverse temperature Δ/T (the thermal
// anyon plasma).
//
// The torus is one more surface.Code: a Lattice embeds the Code that
// surface.NewCode builds from the torus's two graphs, schedule and
// winding detectors, and keeps only what the torus alone has — its
// edge geometry, the torus metric and the shortest paths the exact
// matcher walks, the X-sector memory experiments and the
// hook-suppressing schedule HookParallel. Decoding is delegated to
// internal/decoder: a near-linear union-find decoder for the hot Monte
// Carlo path and a polynomial exact minimum-weight matcher as the
// accuracy baseline. The X-sector memory decodes through
// surface.SectorFailures, each batch chunk's lanes on the chunk's own
// goroutine, bit-identical for any GOMAXPROCS. Two-sector memory runs
// through internal/surface, noisy syndrome extraction over repeated
// rounds through internal/spacetime, both built on this package's
// lattices.
package toric

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/surface"
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
//
// A Lattice is the surface.Code it embeds (built by surface.NewCode
// from the torus's two graphs, its extraction schedule and its winding
// detectors) plus what only the torus has: its geometry and the torus
// metric and paths the exact matcher walks.
type Lattice struct {
	surface.Code
	L int
	// wrapDist[d] = min(d, L−d): the one-axis torus metric, cached so a
	// plaquette distance is two table lookups shared by every lane and
	// worker.
	wrapDist []int32
}

// newLattice returns an L×L toric lattice (L ≥ 2).
//
// Its Code has the primal decoding graph (plaquettes = nodes:
// horizontal edge h(x,y) separates plaquettes (x,y) and (x,y−1),
// vertical edge v(x,y) separates (x,y) and (x−1,y)) and the dual graph
// (sites = nodes: h(x,y) joins sites (x,y)–(x+1,y), v(x,y) joins
// (x,y)–(x,y+1)). The extraction schedule couples each check to its
// four data edges over four global steps (every plaquette runs its
// k-th CNOT in step k, then every star — conflict-free because each
// step's check→edge map is injective):
//
//	plaquette (x,y): h(x,y), v(x,y), v(x+1,y), h(x,y+1)
//	star      (x,y): h(x,y), v(x,y), v(x,y−1), h(x−1,y)
//
// The winding detectors are fixed edge sets whose GF(2) inner products
// with a syndrome-free chain read off its homology class: for the X
// sector (orthogonal to every star) the column of vertical edges at
// x=0 and the row of horizontal edges at y=0; for the Z sector
// (orthogonal to every plaquette) the row of vertical edges at y=0 and
// the column of horizontal edges at x=0.
func newLattice(l int) Lattice {
	if l < 2 {
		panic("toric: lattice size must be at least 2")
	}
	t := Lattice{L: l, wrapDist: make([]int32, l)}
	for d := 0; d < l; d++ {
		t.wrapDist[d] = int32(min(d, l-d))
	}
	nq, nc := 2*l*l, l*l
	ends := make([][2]int32, nq)
	dualEnds := make([][2]int32, nq)
	plaq := make([][4]int, nc)
	star := make([][4]int, nc)
	for y := 0; y < l; y++ {
		for x := 0; x < l; x++ {
			c := y*l + x
			ends[t.HEdge(x, y)] = [2]int32{int32(c), int32(mod(y-1, l)*l + x)}
			ends[t.VEdge(x, y)] = [2]int32{int32(c), int32(y*l + mod(x-1, l))}
			dualEnds[t.HEdge(x, y)] = [2]int32{int32(c), int32(y*l + mod(x+1, l))}
			dualEnds[t.VEdge(x, y)] = [2]int32{int32(c), int32(mod(y+1, l)*l + x)}
			plaq[c] = [4]int{t.HEdge(x, y), t.VEdge(x, y), t.VEdge(x+1, y), t.HEdge(x, y+1)}
			star[c] = [4]int{t.HEdge(x, y), t.VEdge(x, y), t.VEdge(x, y-1), t.HEdge(x-1, y)}
		}
	}
	t.Code = t.newCode("toric", [2]*decoder.Graph{decoder.NewGraph(nc, ends, nil, nil), decoder.NewGraph(nc, dualEnds, nil, nil)}, plaq, star)
	return t
}

// newCode builds the torus's surface.Code over its two sector graphs
// under the given CNOT orders, with the winding detectors as its
// failure detectors.
func (t Lattice) newCode(name string, graphs [2]*decoder.Graph, plaq, star [][4]int) surface.Code {
	var wind [4][]int
	for i := 0; i < t.L; i++ {
		wind[0] = append(wind[0], t.VEdge(0, i))
		wind[1] = append(wind[1], t.HEdge(i, 0))
		wind[2] = append(wind[2], t.VEdge(i, 0))
		wind[3] = append(wind[3], t.HEdge(0, i))
	}
	return surface.NewCode(name, t.L, 2*t.L*t.L, graphs, [2][][4]int{plaq, star}, [2][][]int{wind[:2], wind[2:]})
}

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
// into out (move in x first, then y, wrapping the short way): crossing
// from plaquette (x,y) to (x+1,y) flips v(x+1,y), from (x,y) to
// (x,y+1) flips h(x,y+1).
func (t *Lattice) PathBetween(a, b int, out bits.Vec) {
	t.walk(a, b, out, func(x, y int) int { return t.VEdge(x+1, y) }, func(x, y int) int { return t.HEdge(x, y+1) })
}

// PathBetweenDual is PathBetween on the dual lattice: it flips a shortest
// phase-flip chain connecting sites a and b into out. Crossing from site
// (x,y) to (x+1,y) flips h(x,y); from (x,y) to (x,y+1) flips v(x,y).
func (t *Lattice) PathBetweenDual(a, b int, out bits.Vec) { t.walk(a, b, out, t.HEdge, t.VEdge) }

// walk flips the chain from cell a to cell b that moves in x first,
// then in y, each the short way (forward on a tie): crossX(x, y) is the
// edge crossed from (x,y) to (x+1,y), crossY(x, y) the one from (x,y)
// to (x,y+1).
func (t *Lattice) walk(a, b int, out bits.Vec, crossX, crossY func(x, y int) int) {
	x, y := a%t.L, a/t.L
	for bx := b % t.L; x != bx; {
		if d := mod(bx-x, t.L); d <= t.L-d {
			out.Flip(crossX(x, y))
			x = mod(x+1, t.L)
		} else {
			x = mod(x-1, t.L)
			out.Flip(crossX(x, y))
		}
	}
	for by := b / t.L; y != by; {
		if d := mod(by-y, t.L); d <= t.L-d {
			out.Flip(crossY(x, y))
			y = mod(y+1, t.L)
		} else {
			y = mod(y-1, t.L)
			out.Flip(crossY(x, y))
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

// Validate rejects a kind that names no decoder — the one check every
// memory driver that takes a kind runs, so no layer falls back to a
// decoder of its own choosing.
func (k DecoderKind) Validate() error {
	if k != DecoderExact && k != DecoderUnionFind {
		return fmt.Errorf("toric: decoder kind %d names no decoder (want %d exact or %d union-find)", int(k), int(DecoderExact), int(DecoderUnionFind))
	}
	return nil
}

// decodeScratch carries one caller's decoder state, built per call of
// Decode and BatchMemory and reused across that call's decodes.
type decodeScratch struct {
	uf      *decoder.UnionFind
	matcher decoder.Matcher
	pairs   [][2]int
}

func (s *decodeScratch) takePairs(n int) [][2]int {
	if cap(s.pairs) < n {
		s.pairs = make([][2]int, 0, n)
	}
	return s.pairs[:0]
}

func (t *Lattice) newScratch() *decodeScratch {
	return &decodeScratch{uf: decoder.NewUnionFind(t.SectorGraph(false))}
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
	if len(defects) == 4 {
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

// mwpmMatch is the polynomial exact matcher on the complete torus
// distance graph of the defect set.
func (t *Lattice) mwpmMatch(defects []int, scr *decodeScratch) [][2]int {
	idx := scr.matcher.MinWeightPairs(len(defects), func(i, j int) int64 {
		return int64(t.TorusDist(defects[i], defects[j]))
	})
	pairs := scr.takePairs(len(idx))
	for _, pr := range idx {
		pairs = append(pairs, [2]int{defects[pr[0]], defects[pr[1]]})
	}
	return pairs
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
// seed-per-chunk batches, each chunk decoding its lanes on its own
// goroutine. A lattice under 2×2, a rate that is NaN or outside [0, 1],
// an empty sample or a kind that names no decoder is an error.
func MemoryExperiment(l int, p float64, kind DecoderKind, samples int, seed uint64) (MemoryResult, error) {
	if l < 2 {
		return MemoryResult{}, fmt.Errorf("toric: lattice size must be at least 2 (got %d)", l)
	}
	if err := surface.CheckMemory(p, samples); err != nil {
		return MemoryResult{}, err
	}
	if err := kind.Validate(); err != nil {
		return MemoryResult{}, err
	}
	t := Cached(l)
	var fails atomic.Int64
	frame.ForEachChunk(samples, seed, func(lanes int, smp frame.Sampler) {
		fails.Add(int64(t.BatchMemory(p, kind, lanes, smp).Weight()))
	})
	return MemoryResult{L: l, P: p, Samples: samples, Failures: int(fails.Load())}, nil
}

// latticeCache memoizes constructed lattices: experiments sweep (L, p)
// grids and a lattice is immutable after construction, so the same
// lattice is safely shared across calls and workers.
var latticeCache sync.Map // int → *Lattice

// Cached returns the memoized lattice of size l (l ≥ 2), shared across
// callers — the one constructor of the torus.
func Cached(l int) *Lattice {
	if v, ok := latticeCache.Load(l); ok {
		return v.(*Lattice)
	}
	t := newLattice(l)
	v, _ := latticeCache.LoadOrStore(l, &t)
	return v.(*Lattice)
}

// BatchMemory runs `lanes` independent shots of the passive-memory
// experiment as bit-planes over the given sampler and returns the
// per-lane failure mask: one error plane per edge, in edge order (the
// scalar draw order within each lane), decoded by the primal sector's
// surface.SectorFailures stage with one scratch per call. Under a lockstep
// sampler lane i reproduces a scalar shot drawn from the paired stream
// edge by edge.
func (t *Lattice) BatchMemory(p float64, kind DecoderKind, lanes int, smp frame.Sampler) bits.Vec {
	active := bits.NewVec(lanes)
	active.SetAll()
	planes := bits.NewVecs(t.Qubits(), lanes)
	for _, pl := range planes {
		smp.Bernoulli(p, active, pl)
	}
	scr := t.newScratch()
	return surface.SectorFailures(t, false, planes, func(defects []int, corr bits.Vec) {
		t.decodeInto(defects, kind, scr, corr)
	})
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
//
// The flip rate p0·e^{−Δ/T} goes through MemoryExperiment's checks: a
// rate that is NaN or outside [0, 1] is an error.
func ThermalMemory(l int, p0, deltaOverT float64, kind DecoderKind, samples int, seed uint64) (ThermalResult, error) {
	p := p0 * math.Exp(-deltaOverT)
	r, err := MemoryExperiment(l, p, kind, samples, seed)
	if err != nil {
		return ThermalResult{}, err
	}
	return ThermalResult{DeltaOverT: deltaOverT, FlipProb: p, MemoryResult: r}, nil
}
